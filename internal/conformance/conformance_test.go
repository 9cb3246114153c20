package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hypermm"
)

// engineTranscript runs the engine with a capturing logger and returns
// the transcript plus the summary.
func engineTranscript(t *testing.T, opt Options) (string, Summary) {
	t.Helper()
	var sb strings.Builder
	opt.Logf = func(format string, args ...any) {
		fmt.Fprintf(&sb, format+"\n", args...)
	}
	sum, err := Run(opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sb.String(), sum
}

// TestEngineDeterministic: same seed, same transcript, byte for byte —
// the property hmm soak's CI contract is built on.
func TestEngineDeterministic(t *testing.T) {
	opt := Options{Seed: 7, Iters: 4}
	t1, s1 := engineTranscript(t, opt)
	t2, s2 := engineTranscript(t, opt)
	if t1 != t2 {
		t.Fatalf("transcripts differ:\n--- first\n%s\n--- second\n%s", t1, t2)
	}
	if s1.Checks != s2.Checks || s1.Iters != s2.Iters || len(s1.Failures) != len(s2.Failures) {
		t.Fatalf("summaries differ: %+v vs %+v", s1, s2)
	}
	if s1.Checks == 0 {
		t.Fatal("engine ran no oracle checks")
	}
}

// TestEngineCleanSeedsPass is the conformance gate proper: a spread of
// seeds must clear every oracle. A failure here is a real bug (or an
// oracle whose tolerance is wrong) — the engine will have shrunk it;
// reproduce with hmm soak -seed <seed>.
func TestEngineCleanSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		_, sum := engineTranscript(t, Options{Seed: seed, Iters: 4})
		for _, f := range sum.Failures {
			t.Errorf("seed %d iter %d: %s failed on %v (shrunk from %v): %s",
				seed, f.Iter, f.Oracle, f.Case, f.Orig, f.Err)
		}
	}
}

// brokenRun wraps hypermm.Run with a deliberately broken kernel: every
// distributed product comes back with its first element perturbed —
// the synthetic bug the engine must find, shrink and persist.
func brokenRun(alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
	res, err := hypermm.Run(alg, cfg, A, B)
	if err != nil {
		return res, err
	}
	res.C.Data[0] += 1000
	return res, nil
}

// TestBrokenKernelYieldsMinimizedRepro: with the broken kernel planted,
// the engine must fail, shrink the case to something smaller than the
// original, persist a repro, and that repro must replay to failure while
// the kernel is broken and replay clean once it is fixed.
func TestBrokenKernelYieldsMinimizedRepro(t *testing.T) {
	restore := SetRunHook(brokenRun)
	defer restore()

	scaling, ok := OracleByName("scaling")
	if !ok {
		t.Fatal("scaling oracle missing")
	}
	dir := t.TempDir()
	_, sum := engineTranscript(t, Options{
		Seed: 11, Iters: 3, Oracles: []Oracle{scaling}, ReproDir: dir, MaxFailures: 1,
	})
	if len(sum.Failures) == 0 {
		t.Fatal("broken kernel not detected")
	}
	f := sum.Failures[0]
	if f.Case.N > f.Orig.N || f.Case.P > f.Orig.P {
		t.Errorf("shrinking grew the case: %v from %v", f.Case, f.Orig)
	}
	if f.Steps == 0 {
		t.Errorf("no shrink steps accepted on %v", f.Orig)
	}
	if f.Case.Plan != nil {
		t.Errorf("shrinking kept an irrelevant fault plan: %v", f.Case)
	}
	if f.ReproPath == "" {
		t.Fatal("no repro persisted")
	}

	r, err := Load(f.ReproPath)
	if err != nil {
		t.Fatalf("loading repro: %v", err)
	}
	if err := r.Replay(); err == nil {
		t.Error("repro replayed clean while the kernel is still broken")
	}
	restore()
	if err := r.Replay(); err != nil {
		t.Errorf("repro still fails after the kernel was fixed: %v", err)
	}
}

// TestShrinkIsDeterministic: the same failing case minimizes to the
// same counterexample every time.
func TestShrinkIsDeterministic(t *testing.T) {
	restore := SetRunHook(brokenRun)
	defer restore()
	o, _ := OracleByName("scaling")
	c := Case{N: 48, P: 16, Ts: 150, Tw: 3, Tc: 0.5, Content: ContentRandom, ContentSeed: 9, Scale: 7,
		PlanKind: PlanLight, Plan: &hypermm.FaultPlan{Seed: 3, Drop: 0.05, MaxRetries: 40}}
	if o.Check(c) == nil {
		t.Fatal("case unexpectedly passes under the broken kernel")
	}
	m1, s1, _ := Shrink(o, c, 300)
	m2, s2, _ := Shrink(o, c, 300)
	if m1.String() != m2.String() || s1 != s2 {
		t.Fatalf("shrink diverged: %v (%d) vs %v (%d)", m1, s1, m2, s2)
	}
	if o.Check(m1) == nil {
		t.Fatal("minimized case no longer fails")
	}
	if m1.N >= c.N {
		t.Errorf("n not reduced: %d -> %d", c.N, m1.N)
	}
	if m1.Plan != nil {
		t.Errorf("irrelevant fault plan survived shrinking: %v", m1)
	}
	if m1.Content == ContentRandom {
		t.Errorf("content not simplified: %v", m1)
	}
}

// TestReproRoundTrip: save -> load -> identical case, deterministic
// filename, version and oracle validation.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := &Repro{
		Version: ReproVersion, Oracle: "transpose", Error: "synthetic",
		Case: Case{N: 8, P: 4, Ts: 1, Tw: 1, Content: ContentZeroOne, ContentSeed: 1, Scale: 2,
			PlanKind: PlanHostile, Plan: &hypermm.FaultPlan{
				Down: []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: farFuture}}, MaxRetries: 1}},
	}
	p1, err := Save(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Save(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("same repro saved to different paths: %s vs %s", p1, p2)
	}
	got, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Case.String() != r.Case.String() || got.Oracle != r.Oracle {
		t.Errorf("round trip mutated the repro: %+v vs %+v", got, r)
	}
	if got.Case.Plan == nil || len(got.Case.Plan.Down) != 1 || got.Case.Plan.Down[0].To != farFuture {
		t.Errorf("fault plan lost in round trip: %+v", got.Case.Plan)
	}

	repros, paths, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || len(paths) != 1 {
		t.Fatalf("LoadDir found %d repros, want 1", len(repros))
	}
	if _, _, err := LoadDir(filepath.Join(dir, "missing")); err != nil {
		t.Errorf("missing dir should be an empty corpus: %v", err)
	}
}

func TestLoadRejectsBadRepros(t *testing.T) {
	dir := t.TempDir()
	for name, r := range map[string]*Repro{
		"bad-version.json": {Version: 99, Oracle: "transpose", Case: Case{N: 8, P: 4}},
		"bad-oracle.json":  {Version: ReproVersion, Oracle: "nope", Case: Case{N: 8, P: 4}},
		"bad-p.json":       {Version: ReproVersion, Oracle: "transpose", Case: Case{N: 8, P: 3}},
	} {
		path, err := Save(dir, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted an invalid repro", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("Load accepted a missing file")
	}
}

// TestReplayCheckedInRepros replays every repro committed under
// testdata/repros. Checked-in repros document fixed (or synthetic,
// format-pinning) bugs: each must either replay clean or be a
// deliberately hostile case whose typed fault the differential oracle
// classifies as acceptable — a FAIL here means a regression escaped.
func TestReplayCheckedInRepros(t *testing.T) {
	repros, paths, err := LoadDir(filepath.Join("testdata", "repros"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range repros {
		if err := r.Replay(); err != nil {
			t.Errorf("%s: replay failed: %v", paths[i], err)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	var buf bytes.Buffer
	c := Case{N: 8, P: 4, Ts: 1, Tw: 1, Content: ContentZeroOne, ContentSeed: 1}
	if err := WriteTrace(c, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("trace output does not look like Chrome trace JSON: %.80s", buf.String())
	}
	if err := WriteTrace(Case{N: 5, P: 4}, &buf); err == nil {
		t.Error("WriteTrace accepted a case with no runnable algorithm")
	}
}

// TestOracleCatalogueNamed: every oracle resolves by name (the repro
// format depends on it) and documents itself.
func TestOracleCatalogueNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range Oracles() {
		if o.Name == "" || o.Doc == "" || o.Check == nil {
			t.Errorf("oracle %+v incomplete", o.Name)
		}
		if seen[o.Name] {
			t.Errorf("duplicate oracle name %q", o.Name)
		}
		seen[o.Name] = true
		got, ok := OracleByName(o.Name)
		if !ok || got.Name != o.Name {
			t.Errorf("OracleByName(%q) failed", o.Name)
		}
	}
	if _, ok := OracleByName("definitely-not-an-oracle"); ok {
		t.Error("OracleByName accepted an unknown name")
	}
}

// TestPoolEquivOracle exercises the machine-pool equivalence oracle on
// a clean case and on a recoverable faulted one (retry traffic is the
// hardest state for the warm machine's reset to scrub).
func TestPoolEquivOracle(t *testing.T) {
	o, ok := OracleByName("poolequiv")
	if !ok {
		t.Fatal("poolequiv missing from the catalogue")
	}
	clean := Case{N: 16, P: 4, Ts: 10, Tw: 3, Tc: 0.5, Content: ContentRandom, ContentSeed: 21, Scale: 2, PlanKind: PlanClean}
	if err := o.Check(clean); err != nil {
		t.Errorf("clean case: %v", err)
	}
	light := Case{
		N: 16, P: 4, Ts: 1, Tw: 1, Content: ContentSmallInt, ContentSeed: 22, Scale: 2,
		PlanKind: PlanLight,
		Plan:     &hypermm.FaultPlan{Seed: 5, Drop: 0.1, MaxRetries: 40},
	}
	if !light.Recoverable() {
		t.Fatal("light case classified unrecoverable")
	}
	if err := o.Check(light); err != nil {
		t.Errorf("recoverable case: %v", err)
	}
}

// TestFaultEquivRecoversTypedErrors: a hostile case must not reach the
// faultequiv oracle (Applies gates it), and the differential oracle
// must classify its typed faults as acceptable, not failures.
func TestFaultEquivRecoversTypedErrors(t *testing.T) {
	hostile := Case{
		N: 16, P: 4, Ts: 1, Tw: 1, Content: ContentRandom, ContentSeed: 5, Scale: 2,
		PlanKind: PlanHostile,
		Plan: &hypermm.FaultPlan{
			Down:       []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: farFuture}},
			MaxRetries: 1,
		},
	}
	if hostile.Recoverable() {
		t.Fatal("hostile case classified recoverable")
	}
	diff, _ := OracleByName("differential")
	if err := diff.Check(hostile); err != nil {
		t.Errorf("differential rejected a well-behaved hostile case: %v", err)
	}
	// The raw run must surface the typed error the oracle tolerated.
	A, B := hostile.Operands()
	_, err := hypermm.Run(hypermm.Cannon, hostile.faultConfig(), A, B)
	if !errors.Is(err, hypermm.ErrLinkDown) {
		t.Errorf("hostile plan produced %v, want ErrLinkDown", err)
	}
}

// TestClusterEquivOracle exercises the cluster equivalence oracle on a
// clean case and a recoverable faulted one: routing a job through a
// real coordinator/worker pair over loopback TCP must change nothing
// about the result, retries included.
func TestClusterEquivOracle(t *testing.T) {
	o, ok := OracleByName("clusterequiv")
	if !ok {
		t.Fatal("clusterequiv missing from the catalogue")
	}
	clean := Case{N: 16, P: 4, Ts: 10, Tw: 3, Tc: 0.5, Content: ContentRandom, ContentSeed: 31, Scale: 2, PlanKind: PlanClean}
	if err := o.Check(clean); err != nil {
		t.Errorf("clean case: %v", err)
	}
	light := Case{
		N: 16, P: 4, Ts: 1, Tw: 1, Content: ContentSmallInt, ContentSeed: 32, Scale: 2,
		PlanKind: PlanLight,
		Plan:     &hypermm.FaultPlan{Seed: 6, Drop: 0.1, MaxRetries: 40},
	}
	if !light.Recoverable() {
		t.Fatal("light case classified unrecoverable")
	}
	if err := o.Check(light); err != nil {
		t.Errorf("recoverable case: %v", err)
	}
}
