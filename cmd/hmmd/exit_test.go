package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHTTPServerHardening pins the listener timeouts: without a header
// read timeout one slow-loris client holds a connection goroutine
// forever, and without an idle timeout keep-alive connections are never
// reclaimed.
func TestHTTPServerHardening(t *testing.T) {
	s := newHTTPServer(http.NewServeMux())
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", s.IdleTimeout)
	}
	if s.Handler == nil {
		t.Error("handler not wired")
	}
}

// TestBadCalibrationProfile: an unreadable or invalid -calibration file
// must refuse to start with exit 1, not serve with a half-loaded model.
func TestBadCalibrationProfile(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-calibration", "/nonexistent/profile.json"}, &out, &out, nil); code != 1 {
		t.Errorf("missing profile exit = %d, want 1", code)
	}
	if out.Len() == 0 {
		t.Error("no error output for missing profile")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"not": "a profile"`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-calibration", bad}, &out, &out, nil); code != 1 {
		t.Errorf("corrupt profile exit = %d, want 1", code)
	}
}

// TestListenOccupied binds a port first and starts hmmd on it: exit 1
// with the bind error reported.
func TestListenOccupied(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out bytes.Buffer
	if code := run([]string{"-addr", ln.Addr().String()}, &out, &out, nil); code != 1 {
		t.Errorf("occupied port exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "address already in use") {
		t.Errorf("bind error not reported:\n%s", out.String())
	}
}

// TestBadRole: an unknown -role is a usage error (exit 2), as is a
// worker without a coordinator to join.
func TestBadRole(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-role", "manager"}, &out, &out, nil); code != 2 {
		t.Errorf("unknown role exit = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-role") {
		t.Errorf("role error not reported:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-role", "worker"}, &out, &out, nil); code != 2 {
		t.Errorf("worker without -join exit = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-join") {
		t.Errorf("join error not reported:\n%s", out.String())
	}
}

// TestWorkerJoinFailure: a worker whose coordinator never appears gives
// up after the retry window with exit 1.
func TestWorkerJoinFailure(t *testing.T) {
	// A listener that accepts and immediately closes: never a valid
	// handshake, so every join attempt fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	var out bytes.Buffer
	ready := make(chan string, 2)
	if code := run([]string{"-role", "worker", "-join", ln.Addr().String(),
		"-join-wait", "300ms", "-addr", "127.0.0.1:0"},
		&out, &out, ready); code != 1 {
		t.Errorf("unjoinable worker exit = %d, want 1", code)
	}
}

// TestWorkerJoinInterruptedBySignal: a worker still retrying a dead
// coordinator address must leave within a second of SIGTERM rather than
// sleep out its -join-wait. The signal goes to this process, which is
// safe only because run installs its handler before the first ready
// message.
func TestWorkerJoinInterruptedBySignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here any more: every dial is refused

	var out bytes.Buffer
	ready := make(chan string, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-role", "worker", "-join", dead,
			"-join-wait", "1m", "-addr", "127.0.0.1:0"}, &out, &out, ready)
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never reported its HTTP listener")
	}
	start := time.Now()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if d := time.Since(start); d > time.Second {
			t.Errorf("worker took %v to leave after SIGTERM, want under 1s", d)
		}
		if code != 1 {
			t.Errorf("never-joined worker exit = %d, want 1\n%s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept retrying after SIGTERM")
	}
}
