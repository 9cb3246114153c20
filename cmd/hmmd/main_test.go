package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSigtermDrainsInflight boots the real daemon loop, holds a slow
// request in flight, sends this process SIGTERM (caught by the
// daemon's signal.NotifyContext), and checks that the in-flight job
// completes with 200 before run returns.
func TestSigtermDrainsInflight(t *testing.T) {
	var stdout, stderr bytes.Buffer
	var mu sync.Mutex
	ready := make(chan string, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"},
			lockedWriter{&mu, &stdout}, lockedWriter{&mu, &stderr}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	base := "http://" + addr

	// Sanity: healthz and a quick matmul work.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	// A large request so it is genuinely in flight when the signal
	// lands; we poll the inflight gauge to be sure before signaling.
	status := make(chan int, 1)
	body := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(base+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 1024, "p": 64, "verify": true}`))
		if err != nil {
			status <- -1
			body <- nil
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
		body <- data
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never became in-flight")
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(data), "hmmd_inflight_jobs 1") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case s := <-status:
		data := <-body
		if s != 200 {
			t.Fatalf("in-flight request finished with %d: %s", s, data)
		}
		var mr struct {
			Algorithm string `json:"algorithm"`
			Verified  *bool  `json:"verified"`
		}
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Error("drained job result not verified")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never finished")
	}

	select {
	case code := <-exited:
		if code != 0 {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(stdout.String(), "drained, exiting") {
		t.Errorf("missing drain log:\n%s", stdout.String())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestBadFlags: an unknown flag is a usage error (exit 2). -pool is
// one: every job runs on a fresh machine, so there is no pool to size.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-pool", "4"}} {
		var out bytes.Buffer
		if code := run(args, &out, &out, nil); code != 2 {
			t.Errorf("%v exit = %d, want 2", args, code)
		}
	}
}

func TestListenFailure(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &out, nil); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
	if out.Len() == 0 {
		t.Error("no error output")
	}
}
