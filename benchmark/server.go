package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `nvkv serve` child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// ready is the exec-to-listening wall time; recovered is the
	// in-process recovery time the child printed (0 on a fresh heap).
	ready     time.Duration
	recovered time.Duration
	keys      int64
}

// spawnServer starts `nvkv serve` on heapFile and waits for its
// listening banner. The child picks its own port (-addr 127.0.0.1:0).
func spawnServer(nvkvBin, heapFile string, heapSize uint64) (*server, error) {
	cmd := exec.Command(nvkvBin, "serve", "-addr", "127.0.0.1:0",
		"-heap", heapFile, "-size", strconv.FormatUint(heapSize, 10))
	cmd.Stderr = os.Stderr
	// The child must not outlive the harness, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", nvkvBin, err)
	}
	s := &server{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "recovered "); ok {
			// "nvkv: recovered N keys in Mns"
			if n, ns, ok := strings.Cut(rest, " keys in "); ok {
				s.keys, _ = strconv.ParseInt(n, 10, 64)
				d, _ := strconv.ParseInt(strings.TrimSuffix(ns, "ns"), 10, 64)
				s.recovered = time.Duration(d)
			}
		}
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			s.addr = rest
			s.ready = time.Since(start)
			// The child prints nothing more while serving; its stdout
			// closes when it dies, which ends this goroutine.
			go func() {
				for sc.Scan() {
				}
			}()
			return s, nil
		}
	}
	cmd.Wait()
	return nil, fmt.Errorf("nvkv serve exited before listening (heap %s)", heapFile)
}

// kill sends SIGKILL and reaps the child.
func (s *server) kill() {
	if s != nil && s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		s.cmd.Process = nil
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime.
// It is 100 on every Linux this runs on.
const clockTick = 100

// procCPU returns the user and system CPU time a process has consumed.
func procCPU(pid int) (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	tick := time.Second / clockTick
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// procRunTime returns the time the process's threads have spent on a
// CPU, from /proc/<pid>/task/*/schedstat: nanosecond resolution where
// /proc/<pid>/stat has 10 ms ticks, which a 50 ms window cannot use.
func procRunTime(pid int) time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the two reads
		}
		if ns, _, ok := strings.Cut(string(data), " "); ok {
			n, _ := strconv.ParseInt(ns, 10, 64)
			total += n
		}
	}
	return time.Duration(total)
}

// procPeakRSS returns VmHWM, the process's peak resident set, in bytes.
func procPeakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
