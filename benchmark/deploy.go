package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"adaptivecc/internal/sim"
)

// repoRoot walks up from the working directory to the root of the
// adaptivecc module, which is where cmd/shored is built from.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module adaptivecc\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the adaptivecc module: no enclosing go.mod declares \"module adaptivecc\"")
		}
		dir = parent
	}
}

// buildShored compiles cmd/shored into workDir and reports how long the
// build took; build time is printed, never folded into setup_s.
func buildShored(root, workDir string) (string, time.Duration, error) {
	bin := filepath.Join(workDir, "shored")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/shored: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// shored is one running page-server child.
type shored struct {
	name        string
	cmd         *exec.Cmd
	out         *bytes.Buffer // stdout and stderr, read only after the child has exited
	stopping    atomic.Bool   // set once the benchmark itself asked the child to end
	exited      chan struct{} // closed once the child has been waited for
	waitErr     error         // cmd.Wait's result, valid after exited is closed
	addr        string
	metricsAddr string // empty unless started with metrics
}

// startShored spawns the server in its own directory under workDir on an
// ephemeral loopback port and waits until it listens. With metrics the
// child also serves /debug/vars, which turns its observability on; traced
// runs use that to read server counters at window boundaries.
func startShored(env *benchEnv, name string, seed int64, metrics bool, extra ...string) (*shored, error) {
	dir, err := os.MkdirTemp(env.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", "addr",
		"-seed", strconv.FormatInt(seed, 10),
		"-pages", strconv.Itoa(dbPages),
		"-objects-per-page", strconv.Itoa(objectsPerPage),
		"-page-size", strconv.Itoa(pageSize),
		"-server-pool", strconv.Itoa(serverPoolPages),
	}
	if metrics {
		args = append(args, "-metrics", "127.0.0.1:0", "-metrics-addr-file", "metrics-addr")
	}
	args = append(args, extra...)
	s := &shored{name: name, out: new(bytes.Buffer), exited: make(chan struct{})}
	s.cmd = exec.Command(env.shoredBin, args...)
	s.cmd.Dir = dir
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	// Should the benchmark itself be killed, the kernel kills the child.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	env.track(s, true)
	go func() {
		s.waitErr = s.cmd.Wait()
		env.track(s, false)
		close(s.exited)
		if !s.stopping.Load() {
			// A server that dies under load invalidates the run, and the
			// applications would sit out RPC timeouts for minutes.
			env.fatal(fmt.Errorf("%s exited on its own: %v\n%s", s.name, s.waitErr, s.out))
		}
	}()

	if s.addr, err = s.awaitFile("addr"); err == nil && metrics {
		s.metricsAddr, err = s.awaitFile("metrics-addr")
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("%s never listened: %w\n%s", name, err, s.out)
	}
	return s, nil
}

// awaitFile polls for a file the child writes once the matching listener
// is bound.
func (s *shored) awaitFile(name string) (string, error) {
	path := filepath.Join(s.cmd.Dir, name)
	deadline := time.After(10 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return string(data), nil
		}
		select {
		case <-s.exited:
			return "", errors.New("process exited")
		case <-deadline:
			return "", fmt.Errorf("no %s file after 10s", name)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill ends the child at once and waits until it is gone.
func (s *shored) kill() {
	s.stopping.Store(true)
	_ = s.cmd.Process.Kill() // fails only if it has exited already
	<-s.exited
}

// troubleCounters must be absent or zero in a server's final counters: each
// means the server saw a fault the benchmark never injects, such as a
// client fenced as dead or a commit resolved by presumed abort.
var troubleCounters = []string{
	sim.CtrWriteBackErrors, sim.CtrCrashRecoveries, sim.Ctr2PCPresumedAborts,
}

// stop sends SIGTERM, waits for the drain, parses the shutdown report and
// returns the child's peak resident size in bytes. Anything but a clean
// exit with zero prepared-undecided transactions is an error: the workload
// then fails.
func (s *shored) stop() (peakRSS int64, err error) {
	s.stopping.Store(true)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, fmt.Errorf("%s: SIGTERM: %w", s.name, err)
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return 0, fmt.Errorf("%s exited ungracefully: %w\n%s", s.name, s.waitErr, s.out)
		}
	case <-time.After(30 * time.Second):
		s.kill()
		return 0, fmt.Errorf("%s did not drain within 30s of SIGTERM\n%s", s.name, s.out)
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("%s: no rusage for the exited process", s.name)
	}
	peakRSS = ru.Maxrss * 1024 // Linux reports KiB
	counters, undecided, err := parseShutdownReport(s.out.String())
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.name, err)
	}
	if undecided != 0 {
		return 0, fmt.Errorf("%s shut down with %d prepared-undecided transactions", s.name, undecided)
	}
	for _, name := range troubleCounters {
		if counters[name] != 0 {
			return 0, fmt.Errorf("%s reported %s = %d", s.name, name, counters[name])
		}
	}
	return peakRSS, nil
}

// parseShutdownReport reads shored's SIGTERM output: the
// "prepared-undecided transactions: N" line and the "final counters:"
// block of "  name  value" rows that ends the output.
func parseShutdownReport(out string) (counters map[string]int64, undecided int, err error) {
	const undecidedPrefix = "shored: prepared-undecided transactions: "
	sawUndecided := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, undecidedPrefix):
			undecided, err = strconv.Atoi(strings.TrimPrefix(line, undecidedPrefix))
			if err != nil {
				return nil, 0, fmt.Errorf("bad prepared-undecided line %q", line)
			}
			sawUndecided = true
		case line == "shored: final counters:":
			counters = make(map[string]int64)
		case counters != nil:
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, 0, fmt.Errorf("bad counter line %q", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad counter line %q", line)
			}
			counters[fields[0]] = v
		}
	}
	if !sawUndecided || counters == nil {
		return nil, 0, errors.New("shutdown report is missing the prepared-undecided line or the final counters block")
	}
	return counters, undecided, nil
}

// liveCounters reads the server's counters from its /debug/vars endpoint.
func (s *shored) liveCounters() (map[string]int64, error) {
	resp, err := http.Get("http://" + s.metricsAddr + "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("%s counters: %w", s.name, err)
	}
	defer resp.Body.Close()
	var doc struct {
		Systems map[string]struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"adaptivecc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s counters: %w", s.name, err)
	}
	sum := make(map[string]int64)
	for _, sys := range doc.Systems {
		for k, v := range sys.Counters {
			sum[k] += v
		}
	}
	return sum, nil
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// selfCPU is the benchmark process's user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad argument
	}
	return tvDuration(ru.Utime) + tvDuration(ru.Stime)
}

// clockTick is the unit of /proc/<pid>/stat times. Linux fixes USER_HZ at
// 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is a live child's user+sys CPU so far, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15). The command
// name (field 2) is parenthesised and may itself contain spaces, so fields
// are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad stat line %q", stat)
	}
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}
