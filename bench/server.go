package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rigArgs is the fixed server configuration of every end-to-end run. The
// flush policy is stated and identical on both sides of any comparison;
// shards, parallelism and admission are sized for the two cores the
// benchmark runs on.
func rigArgs(walDir, snapDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-shards", "2", "-parallel", "1", "-max-concurrent", "2", "-cache-size", "128",
		"-wal", walDir, "-fsync", "always", "-snapshot", snapDir,
	}
}

// server is one tlcserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logs   sync.WaitGroup
	peakKB int64 // VmHWM read just before the process was killed
}

var (
	liveMu      sync.Mutex
	liveServers = map[*server]bool{}
)

// killAll stops every server still running; the fatal-error path calls
// it so no process outlives the benchmark.
func killAll() {
	liveMu.Lock()
	var all []*server
	for s := range liveServers {
		all = append(all, s)
	}
	liveMu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// startServer spawns tlcserve and returns once it printed its listening
// address (which happens after the startup load and snapshot). The
// server may still be replaying its WAL: poll waitReady.
func startServer(bin, logPath string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd}
	liveMu.Lock()
	liveServers[s] = true
	liveMu.Unlock()

	addr := make(chan string, 1)
	s.logs.Add(1)
	go func() {
		defer s.logs.Done()
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "tlcserve: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("tlcserve exited before listening:\n%s", log)
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("tlcserve did not start listening within 60s")
	}
	return s, nil
}

// kill sends SIGKILL and waits for the process and its log reader.
func (s *server) kill() {
	if s.cmd.ProcessState != nil {
		return
	}
	if kb := s.vmHWM(); kb > s.peakKB {
		s.peakKB = kb
	}
	s.cmd.Process.Kill()
	s.logs.Wait() // the pipe must be drained before Wait closes it
	s.cmd.Wait()
	liveMu.Lock()
	delete(liveServers, s)
	liveMu.Unlock()
}

// vmHWM returns the process's peak resident set in KiB (Linux).
func (s *server) vmHWM() int64 {
	const field = "VmHWM:"
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// ---- HTTP client ----

type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (last error: %v)", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// answer is what the driver checks of a query result: the number of
// trees and an FNV-1a hash over their serializations.
type answer struct {
	Count int
	Hash  uint64
}

func hashResults(results []string) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		io.WriteString(h, r)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// opError is an operation the server answered with a status other than
// 200: a failure, or a refusal by admission control (429/503).
type opError struct {
	status int
	msg    string
}

func (e *opError) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.msg) }

func encodeQuery(text string) []byte {
	b, _ := json.Marshal(map[string]string{"query": text})
	return b
}

func encodeUpdate(u Update) []byte {
	b, _ := json.Marshal(struct {
		Doc string `json:"doc"`
		Update
	}{docName, u})
	return b
}

func (c *client) query(body []byte) (answer, error) {
	status, data, err := c.post("/query", body)
	if err != nil {
		return answer{}, err
	}
	if status != http.StatusOK {
		return answer{}, &opError{status, strings.TrimSpace(string(data))}
	}
	var out struct {
		Count   int      `json:"count"`
		Results []string `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return answer{}, fmt.Errorf("bad /query response: %w", err)
	}
	if out.Count != len(out.Results) {
		return answer{}, fmt.Errorf("/query count %d but %d results", out.Count, len(out.Results))
	}
	return answer{out.Count, hashResults(out.Results)}, nil
}

func (c *client) update(body []byte) error {
	status, data, err := c.post("/update", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &opError{status, strings.TrimSpace(string(data))}
	}
	return nil
}

// checkpoint asks the server for a durable checkpoint into dir.
func (c *client) checkpoint(dir string) error {
	status, data, err := c.post("/snapshot?dir="+url.QueryEscape(dir), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &opError{status, strings.TrimSpace(string(data))}
	}
	return nil
}

// varz is the slice of /varz the driver reads.
type varz struct {
	PlanCache struct {
		Hits            uint64 `json:"hits"`
		HitsContainment uint64 `json:"plan_hits_containment"`
		Misses          uint64 `json:"misses"`
		Evictions       uint64 `json:"evictions"`
		Invalidations   uint64 `json:"invalidations"`
	} `json:"plan_cache"`
	Mutate struct {
		Conflicts    int64 `json:"update_conflicts"`
		VersionsLive int64 `json:"versions_live"`
	} `json:"mutate"`
	Shed          int64 `json:"shed_total"`
	UpdateRetries int64 `json:"update_retries"`
	Recovery      struct {
		Applied int64 `json:"applied"`
		Skipped int64 `json:"skipped"`
	} `json:"recovery"`
	WAL struct {
		Appended int64 `json:"appended"`
		Synced   int64 `json:"synced"`
		Bytes    int64 `json:"bytes"`
	} `json:"wal"`
}

func (c *client) varz() (varz, error) {
	var v varz
	resp, err := c.hc.Get(c.base + "/varz")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/varz: http %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
