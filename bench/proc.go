package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildSDChecker compiles cmd/sdchecker from the repository at root into
// binDir and returns the binary's path.
func buildSDChecker(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "sdchecker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sdchecker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sdchecker: %v\n%s", err, out)
	}
	return bin, nil
}

// mineRun is one `sdchecker -dir T -json` subprocess run.
type mineRun struct {
	wall     time.Duration
	sha      string // sha256 of standard output
	maxRSSKB int64  // getrusage ru_maxrss of the child
}

// execReport prefixes the line execMain adds to standard error.
const execReport = "sdbench-exec:"

// runMine runs the offline miner over dir through `sdbench -exec` (see
// execMain) and hashes what it prints.
func runMine(bin, dir string) (mineRun, error) {
	self, err := os.Executable()
	if err != nil {
		return mineRun{}, err
	}
	h := sha256.New()
	var stderr bytes.Buffer
	cmd := exec.Command(self, "-exec", bin, "-dir", dir, "-json")
	cmd.Stdout = h
	cmd.Stderr = &stderr
	err = cmd.Run()
	r := mineRun{sha: hex.EncodeToString(h.Sum(nil))}
	msg := strings.TrimSpace(stderr.String())
	if i := strings.LastIndex(msg, execReport); i >= 0 {
		var wallNS int64
		if _, serr := fmt.Sscanf(msg[i+len(execReport):], "%d %d", &wallNS, &r.maxRSSKB); serr == nil {
			r.wall = time.Duration(wallNS)
		}
		msg = strings.TrimSpace(msg[:i])
	}
	if err == nil && r.wall == 0 {
		err = errors.New("no timing report")
	}
	if err != nil {
		return r, fmt.Errorf("sdchecker -dir %s -json: %v: %s", dir, err, msg)
	}
	return r, nil
}

// execMain runs args as a command with this process's standard streams
// and appends its wall time (ns) and peak RSS (KiB) to standard error.
// The harness measures the offline miner through it because Linux carries
// the exec'ing process's peak RSS into the child's ru_maxrss: run straight
// from the harness, whose own peak holds a whole simulated cluster, every
// miner would report at least that.
func execMain(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "sdbench: -exec needs a command")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		fmt.Fprintln(stderr, "sdbench: no rusage for the child")
		return 1
	}
	fmt.Fprintln(stderr, execReport, wall.Nanoseconds(), ru.Maxrss)
	return 0
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// server is one running `sdchecker -serve` process and the single
// keep-alive HTTP client that talks to it.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	client  *http.Client
	drained chan struct{} // closed once the child's stdout reaches EOF
}

var bannerRE = regexp.MustCompile(`on http://(\S+) `)

// startServer launches `sdchecker -dir dir -serve 127.0.0.1:0` and returns
// once its banner has named the bound address.
func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "-dir", dir, "-serve", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	s := &server{cmd: cmd, drained: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(stdout)
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sent := false
		for {
			line, err := br.ReadString('\n')
			if !sent {
				if m := bannerRE.FindStringSubmatch(line); m != nil {
					addr <- m[1]
					sent = true
				}
			}
			if err != nil {
				if !sent {
					close(addr)
				}
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, errors.New("sdchecker -serve exited before printing its address")
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("sdchecker -serve printed no address within 30s")
	}
	// One connection, kept alive: the load comes from one client.
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// get issues one GET and returns the status, body and latency.
func (s *server) get(path string) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

// healthz returns the server's apps_ingested count and the status code.
func (s *server) healthz() (uint64, int, error) {
	code, body, _, err := s.get("/healthz")
	if err != nil {
		return 0, code, err
	}
	apps, err := appsIngested(body)
	return apps, code, err
}

// appsIngested reads apps_ingested from a /healthz body.
func appsIngested(body []byte) (uint64, error) {
	var doc struct {
		AppsIngested uint64 `json:"apps_ingested"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("/healthz: %w", err)
	}
	return doc.AppsIngested, nil
}

// vmHWMKB reads the child's peak resident set size from /proc.
func (s *server) vmHWMKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop kills the server and waits for it and its output reader to end.
func (s *server) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Kill() // the server has no clean shutdown; it holds no state worth keeping
	<-s.drained              // EOF once the child is gone; Wait closes the pipe, so it comes after
	_ = s.cmd.Wait()
}

// scrape fetches /metrics and returns every series by its full name
// (labels included, as printed), e.g. `obs_stage_duration_ms_sum{stage="scan"}`.
func (s *server) scrape() (map[string]float64, error) {
	code, body, _, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseMetrics(body)
}

func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}
