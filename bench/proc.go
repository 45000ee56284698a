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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// findRoot walks up from the working directory to the checkout root: the
// directory holding the module's go.mod and cmd/ontoserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ontoserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (go.mod + cmd/ontoserve) above the working directory")
		}
		dir = parent
	}
}

// childEnv is the environment of every process the harness starts, with
// GOMAXPROCS replaced: the harness itself runs on one P, a `go build` on all
// of them, and the server on serverProcs().
func childEnv(gomaxprocs string) []string {
	env := make([]string, 0, len(os.Environ())+1)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	if gomaxprocs != "" {
		env = append(env, "GOMAXPROCS="+gomaxprocs)
	}
	return env
}

// serverProcs is the server's GOMAXPROCS: every core but the one the
// harness drives from, so client and server do not fight for a core.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

// cpuMask is a sched_setaffinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// cpuPlan is which CPUs the harness and the server run on: the last CPU this
// process may use for the harness, the others for the server. GOMAXPROCS
// alone does not keep the two apart: the kernel likes to run a thread woken
// through a socket on the CPU of the thread that woke it, which puts client
// and server on one core for stretches of a run and moved throughput by a
// fifth from run to run on the 2-core reference box.
type cpuPlan struct {
	harness, server []int
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for c := 0; c < 64*len(mask); c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

func planCPUs() (cpuPlan, error) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) == 0 {
		return cpuPlan{}, fmt.Errorf("no CPU list: %v", err)
	}
	if len(cpus) == 1 {
		return cpuPlan{harness: cpus, server: cpus}, nil
	}
	return cpuPlan{harness: cpus[len(cpus)-1:], server: cpus[:len(cpus)-1]}, nil
}

// setAffinity pins every thread of process pid to cpus. Threads created
// later inherit the mask from the thread that creates them.
func setAffinity(pid int, cpus []int) error {
	var mask cpuMask
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	seen := map[int]bool{}
	for fresh := true; fresh; {
		entries, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		fresh = false
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || seen[tid] {
				continue
			}
			seen[tid], fresh = true, true
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread ended since it was listed
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// cpus is the plan in force; empty until pinHarness has run, and left empty
// when the kernel refuses, in which case nothing is pinned.
var cpus cpuPlan

// pinHarness fixes the CPU plan and moves the harness onto its CPU. It runs
// after the builds, which should use every CPU.
func pinHarness(logf func(string, ...any)) {
	plan, err := planCPUs()
	if err == nil {
		err = setAffinity(os.Getpid(), plan.harness)
	}
	if err != nil {
		logf("not pinning to CPUs: %v", err)
		return
	}
	cpus = plan
}

// buildServer compiles cmd/ontoserve from the checkout's source into out
// and returns the binary's content hash, which names everything derived
// from it (the golden data directory).
func buildServer(root, out string) (string, error) {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ontoserve")
	cmd.Dir = root
	cmd.Env = childEnv("")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ontoserve: %v\n%s", err, msg)
	}
	f, err := os.Open(out)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// children tracks every live child and temp directory so that an interrupt
// can stop and remove them all.
var children struct {
	sync.Mutex
	procs map[*child]bool
	dirs  map[string]bool
}

func trackDir(dir string) {
	children.Lock()
	defer children.Unlock()
	if children.dirs == nil {
		children.dirs = map[string]bool{}
	}
	children.dirs[dir] = true
}

func removeDir(dir string) {
	children.Lock()
	delete(children.dirs, dir)
	children.Unlock()
	os.RemoveAll(dir)
}

// killEverything is the interrupt path: SIGKILL every child, wait for each,
// remove every temp directory.
func killEverything() {
	children.Lock()
	procs := make([]*child, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(children.dirs))
	for d := range children.dirs {
		dirs = append(dirs, d)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// child is one ontoserve child process.
type child struct {
	cmd     *exec.Cmd
	pid     int
	api     string // http://host:port of the API listener
	pprof   string // http://host:port of the -pprof-addr listener
	logPath string
	waited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

// Log lines ontoserve announces its two listeners with.
var (
	apiLine   = regexp.MustCompile(`serving \d+ asserted \+ \d+ inferred triples on (http://\S+)`)
	pprofLine = regexp.MustCompile(`pprof on (http://[^/\s]+)/debug/pprof/`)
)

// parseListenAddrs extracts the API and pprof base URLs from the server's
// log; either is "" until its line has been written.
func parseListenAddrs(log []byte) (api, pprof string) {
	if m := apiLine.FindSubmatch(log); m != nil {
		api = string(m[1])
	}
	if m := pprofLine.FindSubmatch(log); m != nil {
		pprof = string(m[1])
	}
	return api, pprof
}

// addrWatcher tees the child's stderr into its log file and reports the
// listen addresses as soon as both have been logged.
type addrWatcher struct {
	f     *os.File
	buf   []byte
	found chan [2]string
	done  bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if !w.done {
		w.buf = append(w.buf, p...)
		if api, pprof := parseListenAddrs(w.buf); api != "" && pprof != "" {
			w.done, w.buf = true, nil
			w.found <- [2]string{api, pprof}
		}
	}
	return w.f.Write(p)
}

// startServer spawns ontoserve with args (listeners on 127.0.0.1:0 are
// appended) and waits until it has logged both listen addresses. Its stderr
// goes to logPath.
func startServer(bin, logPath string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	w := &addrWatcher{f: logf, found: make(chan [2]string, 1)}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0")...)
	cmd.Env = childEnv(strconv.Itoa(serverProcs()))
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	if len(cpus.server) > 0 {
		// The child starts on the harness's CPU (the mask is inherited) and
		// is moved before it has done any work worth measuring.
		if err := setAffinity(cmd.Process.Pid, cpus.server); err != nil {
			fmt.Fprintf(os.Stderr, "bench: pinning ontoserve: %v\n", err)
		}
	}
	s := &child{cmd: cmd, pid: cmd.Process.Pid, logPath: logPath, waited: make(chan struct{})}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*child]bool{}
	}
	children.procs[s] = true
	children.Unlock()
	go func() {
		s.waitErr = cmd.Wait() // returns once the stderr copier has drained
		logf.Close()
		children.Lock()
		delete(children.procs, s)
		children.Unlock()
		close(s.waited)
	}()
	select {
	case addrs := <-w.found:
		s.api, s.pprof = addrs[0], addrs[1]
		return s, nil
	case <-s.waited:
		return nil, fmt.Errorf("ontoserve exited before serving: %v\n%s", s.waitErr, s.logTail())
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("ontoserve did not announce its listeners within 120s\n%s", s.logTail())
	}
}

// logTail returns the end of the child's stderr, for failure reports.
func (s *child) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return "--- ontoserve stderr ---\n" + string(bytes.TrimSpace(b))
}

// kill SIGKILLs the child and waits until it has ended.
func (s *child) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
}

// stop asks for a graceful shutdown (the server flushes its log) and waits;
// a child still alive after the grace period is killed.
func (s *child) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
		return s.waitErr
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("ontoserve ignored SIGTERM for 20s and was killed")
	}
}

// procStat is what the harness reads of /proc/<pid>/stat.
type procStat struct {
	userSeconds, sysSeconds float64 // utime, stime
}

func (p procStat) cpuSeconds() float64 { return p.userSeconds + p.sysSeconds }

// clockTick is USER_HZ, the unit of the stat file's times; Linux fixes it at
// 100 for every architecture Go supports.
const clockTick = 100

// parseProcStat parses the contents of /proc/<pid>/stat. The command name
// (field 2) may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(b []byte) (procStat, error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return procStat{}, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(string(b[end+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("proc stat: utime %q stime %q", fields[11], fields[12])
	}
	return procStat{userSeconds: float64(utime) / clockTick, sysSeconds: float64(stime) / clockTick}, nil
}

func (s *child) cpu() (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(b)
}

// parseStealTicks sums the steal column (time the hypervisor ran something
// else while a CPU had work) of the given CPUs from the contents of
// /proc/stat.
func parseStealTicks(b []byte, cpus []int) (float64, error) {
	want := map[string]bool{}
	for _, c := range cpus {
		want["cpu"+strconv.Itoa(c)] = true
	}
	total, found := 0.0, 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !want[f[0]] {
			continue
		}
		v, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: steal of %s: %w", f[0], err)
		}
		total += v
		found++
	}
	if found != len(want) {
		return 0, fmt.Errorf("proc stat: found %d of %d cpu lines", found, len(want))
	}
	return total, nil
}

// stolenSeconds is the cumulative steal time of the server's CPUs; 0 when
// nothing is pinned or the kernel does not say.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil || len(cpus.server) == 0 {
		return 0
	}
	ticks, err := parseStealTicks(b, cpus.server)
	if err != nil {
		return 0
	}
	return ticks / clockTick
}

// parseVmHWM extracts the peak resident set size, in MiB, from the contents
// of /proc/<pid>/status.
func parseVmHWM(b []byte) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func (s *child) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// copyDir copies the regular files of src (a flat data directory) into a
// new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeJSONLines creates path and writes what emit encodes, one JSON value
// per line.
func writeJSONLines(path string, emit func(enc *json.Encoder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := emit(json.NewEncoder(bw)); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
