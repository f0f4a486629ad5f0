// Kill-and-restart chaos harness: each scenario drives a real tlcserve
// subprocess through an update mix, SIGKILLs it at a deterministically
// injected crash point, restarts it against the same WAL directory, and
// asserts the recovered store is byte-identical to an uncrashed reference
// holding exactly the acknowledged updates — every acknowledged update
// present, every unacknowledged one atomically absent.
//
// Crash timing is deterministic, not sleep-based: the scenario arms a
// slow-mode fault (wal.fsync=slow,delay=30s,after=N) so the N-th
// operation stalls inside the crash window, polls /varz until the
// point's fired counter shows the stall is in progress, and only then
// kills the process.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// crashFactor keeps the XMark base document small: the scenarios are
// about durability, not scale.
const crashFactor = 0.005

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// serverBinary builds the tlcserve binary once per test run.
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "tlcserve-crash-*")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "tlcserve"), ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building tlcserve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "tlcserve")
}

// server is one tlcserve subprocess under test.
type server struct {
	cmd     *exec.Cmd
	addr    string
	stderr  *lockedBuffer
	exited  chan struct{} // closed once the process is reaped
	waitErr error         // cmd.Wait result, valid after exited closes
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer launches tlcserve on a fresh port and waits until it
// prints its listening address. faults is the TLC_FAULTS spec ("" for
// none); extraArgs append to the default -addr/-xmark flags.
func startServer(t *testing.T, faults string, extraArgs ...string) *server {
	t.Helper()
	bin := serverBinary(t)
	args := append([]string{"-addr", "127.0.0.1:0", "-xmark", fmt.Sprint(crashFactor)}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TLC_FAULTS="+faults)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: cmd, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	stderrDone := make(chan struct{}) // closed at EOF on the server's stderr
	go func() {
		defer close(stderrDone)
		// Tee stderr: scan for the listen line, keep everything for the
		// scenario's log assertions.
		buf := make([]byte, 4096)
		var line strings.Builder
		announced := false
		for {
			n, err := stderrPipe.Read(buf)
			if n > 0 {
				s.stderr.Write(buf[:n])
				if !announced {
					line.Write(buf[:n])
					if i := strings.Index(line.String(), "listening on "); i >= 0 {
						rest := line.String()[i+len("listening on "):]
						if j := strings.IndexByte(rest, '\n'); j >= 0 {
							addrCh <- strings.TrimSpace(rest[:j])
							announced = true
						}
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Wait closes the pipe, so it must not run before the reader has
		// seen EOF, or the server's last log lines are lost.
		<-stderrDone
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-s.exited
	})
	select {
	case s.addr = <-addrCh:
	case <-s.exited:
		t.Fatalf("tlcserve exited before listening: %v\n%s", s.waitErr, s.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("tlcserve never announced its address\n%s", s.stderr.String())
	}
	return s
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// kill SIGKILLs the server and waits for the process to be reaped.
func (s *server) kill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-s.exited
}

// waitReady polls /readyz until it reports 200.
func (s *server) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never became ready\n%s", s.stderr.String())
}

// update inserts the k-th crash marker; ok reports whether the server
// acknowledged it (HTTP 200).
func (s *server) update(t *testing.T, k int) bool {
	t.Helper()
	body := fmt.Sprintf(`{"doc":"auction.xml","op":"insert","target":"/site","fragment":"<crashmark>m%d</crashmark>"}`, k)
	resp, err := http.Post(s.url("/update"), "application/json", strings.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// query runs one query and returns its results.
func (s *server) query(t *testing.T, q string) []string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": q, "timeout_ms": 60000})
	resp, err := http.Post(s.url("/query"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []string `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("query response: %v", err)
	}
	return out.Results
}

// countMarks counts committed crash markers.
func (s *server) countMarks(t *testing.T) int {
	t.Helper()
	return len(s.query(t, `FOR $c IN document("auction.xml")//crashmark RETURN $c`))
}

// siteState serializes every committed crash marker in document order —
// the byte-identity witness every scenario compares against an uncrashed
// reference (the markers are the only mutations these scenarios make).
func (s *server) siteState(t *testing.T) string {
	t.Helper()
	return strings.Join(s.query(t, `FOR $c IN document("auction.xml")//crashmark RETURN $c`), "\n")
}

// waitFired polls /faultz until the fault point's fired counter reaches
// n — the deterministic signal that the injected stall is in progress.
// /faultz (not /varz): an injected stall inside the commit path holds
// store and WAL locks that /varz's gauges read behind, so a /varz poll
// would block for the whole stall and observe fired only after the
// crash window has already closed.
func (s *server) waitFired(t *testing.T, point string, n float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/faultz"))
		if err == nil {
			var fz struct {
				Faults map[string]struct {
					Fired float64 `json:"fired"`
				} `json:"faults"`
			}
			err := json.NewDecoder(resp.Body).Decode(&fz)
			resp.Body.Close()
			if err == nil && fz.Faults[point].Fired >= n {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fault %s never fired %v times\n%s", point, n, s.stderr.String())
}

// referenceState boots a fresh, never-crashed server with its own WAL,
// applies exactly n acknowledged updates, and returns its serialized
// site — what a recovered store must be byte-identical to.
func referenceState(t *testing.T, n int) string {
	t.Helper()
	ref := startServer(t, "", "-wal", t.TempDir())
	ref.waitReady(t)
	for k := 0; k < n; k++ {
		if !ref.update(t, k) {
			t.Fatalf("reference update %d failed", k)
		}
	}
	state := ref.siteState(t)
	ref.kill(t)
	return state
}

// TestCrashCleanKill SIGKILLs a server with no fault armed: every
// acknowledged update is on disk (fsync=always acknowledges after the
// fsync), so the restart must recover exactly all of them.
func TestCrashCleanKill(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "", "-wal", walDir)
	s1.waitReady(t)
	for k := 0; k < 4; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	s1.kill(t)

	s2 := startServer(t, "", "-wal", walDir)
	s2.waitReady(t)
	if got := s2.countMarks(t); got != 4 {
		t.Fatalf("recovered %d marks, want 4", got)
	}
	if got, want := s2.siteState(t), referenceState(t, 4); got != want {
		t.Fatal("recovered store differs from uncrashed reference")
	}
	s2.kill(t)
}

// TestCrashAtFsyncBoundary stalls the 4th fsync (the 4th update's commit
// under fsync=always) and kills the process mid-stall. Updates 1-3 were
// acknowledged and must survive; update 4 was never acknowledged, so the
// recovered count must land in [3,4] — and whichever it is, the store
// must be byte-identical to a reference that committed exactly that many.
func TestCrashAtFsyncBoundary(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "wal.fsync=slow,delay=30s,after=4", "-wal", walDir)
	s1.waitReady(t)
	for k := 0; k < 3; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	// The 4th update stalls inside the fsync window; fire it async and
	// kill once /varz shows the stall began.
	go s1.update(t, 3)
	s1.waitFired(t, "wal.fsync", 1)
	s1.kill(t)

	s2 := startServer(t, "", "-wal", walDir)
	s2.waitReady(t)
	got := s2.countMarks(t)
	if got < 3 || got > 4 {
		t.Fatalf("recovered %d marks, want 3 or 4 (3 acked + 1 in the crash window)", got)
	}
	if state, want := s2.siteState(t), referenceState(t, got); state != want {
		t.Fatal("recovered store differs from uncrashed reference")
	}
	s2.kill(t)
}

// TestCrashAtAppend stalls the 4th update before its record is written
// at all: the unacknowledged update must leave no trace.
func TestCrashAtAppend(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "wal.append=slow,delay=30s,after=4", "-wal", walDir)
	s1.waitReady(t)
	for k := 0; k < 3; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	go s1.update(t, 3)
	s1.waitFired(t, "wal.append", 1)
	s1.kill(t)

	s2 := startServer(t, "", "-wal", walDir)
	s2.waitReady(t)
	if got := s2.countMarks(t); got != 3 {
		t.Fatalf("recovered %d marks, want exactly 3 (update 4 never reached the log)", got)
	}
	if state, want := s2.siteState(t), referenceState(t, 3); state != want {
		t.Fatal("recovered store differs from uncrashed reference")
	}
	s2.kill(t)
}

// TestCrashDuringRotate kills the process inside the snapshot
// checkpoint's rotation step: the log must still replay every
// acknowledged update on restart.
func TestCrashDuringRotate(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "wal.rotate=slow,delay=30s", "-wal", walDir)
	s1.waitReady(t)
	for k := 0; k < 3; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	go http.Post(s1.url("/snapshot?dir="+filepath.Join(t.TempDir(), "snap")), "", nil)
	s1.waitFired(t, "wal.rotate", 1)
	s1.kill(t)

	s2 := startServer(t, "", "-wal", walDir)
	s2.waitReady(t)
	if got := s2.countMarks(t); got != 3 {
		t.Fatalf("recovered %d marks after mid-rotation crash, want 3", got)
	}
	if state, want := s2.siteState(t), referenceState(t, 3); state != want {
		t.Fatal("recovered store differs from uncrashed reference")
	}
	s2.kill(t)
}

// TestCrashDuringReplay crashes the process while it is itself
// recovering: replay must be restartable from scratch, and /readyz must
// report 503 recovering for the whole replay window.
func TestCrashDuringReplay(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "", "-wal", walDir)
	s1.waitReady(t)
	for k := 0; k < 5; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	s1.kill(t)

	// Second boot stalls on the 3rd replayed record; readiness must be
	// 503 while the stall holds.
	s2 := startServer(t, "recover.replay=slow,delay=30s,after=3", "-wal", walDir)
	s2.waitFired(t, "recover.replay", 1)
	resp, err := http.Get(s2.url("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		State  string `json:"state"`
		Replay struct {
			Applied int `json:"applied"`
		} `json:"replay"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.State != "recovering" {
		t.Fatalf("readyz during replay = %d %+v, want 503 recovering", resp.StatusCode, ready)
	}
	if ready.Replay.Applied < 2 {
		t.Fatalf("replay progress %d, want >= 2 before the stalled record", ready.Replay.Applied)
	}
	s2.kill(t)

	// Third boot recovers cleanly: all five updates, byte-identical.
	s3 := startServer(t, "", "-wal", walDir)
	s3.waitReady(t)
	if got := s3.countMarks(t); got != 5 {
		t.Fatalf("recovered %d marks after crashed recovery, want 5", got)
	}
	if state, want := s3.siteState(t), referenceState(t, 5); state != want {
		t.Fatal("recovered store differs from uncrashed reference")
	}
	s3.kill(t)
}

// TestGracefulShutdownSyncsWAL sends SIGTERM to a batch-fsync server:
// the drain path must flush the pending batch and exit 0, and the
// restart must recover every acknowledged update.
func TestGracefulShutdownSyncsWAL(t *testing.T) {
	walDir := t.TempDir()
	s1 := startServer(t, "", "-wal", walDir, "-fsync", "batch")
	s1.waitReady(t)
	for k := 0; k < 4; k++ {
		if !s1.update(t, k) {
			t.Fatalf("update %d not acknowledged", k)
		}
	}
	if err := s1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s1.exited:
		if s1.waitErr != nil {
			t.Fatalf("SIGTERM exit: %v (want 0)\n%s", s1.waitErr, s1.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server never exited after SIGTERM\n%s", s1.stderr.String())
	}
	logs := s1.stderr.String()
	if !strings.Contains(logs, "draining") || !strings.Contains(logs, "wal closed") {
		t.Fatalf("graceful shutdown log lines missing:\n%s", logs)
	}

	s2 := startServer(t, "", "-wal", walDir, "-fsync", "batch")
	s2.waitReady(t)
	if got := s2.countMarks(t); got != 4 {
		t.Fatalf("recovered %d marks after graceful shutdown, want 4", got)
	}
	if state, want := s2.siteState(t), referenceState(t, 4); state != want {
		t.Fatal("post-shutdown store differs from uncrashed reference")
	}
	s2.kill(t)
}
