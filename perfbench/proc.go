package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a child process under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	// done is closed once the process has exited and its stdout is
	// drained.
	done chan struct{}
}

// startProc launches bin with args, standard error appended to
// logPath, and returns once a standard-output line starting with each
// of want has appeared, with the rest of each such line. Output after
// that is drained and dropped.
func startProc(name, bin string, args []string, logPath string, want ...string) (*proc, []string, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	found := make(chan [2]string, len(want))
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			for _, w := range want {
				if rest, ok := strings.CutPrefix(sc.Text(), w); ok {
					select {
					case found <- [2]string{w, rest}:
					default: // a repeat of a line already seen
					}
				}
			}
		}
		_ = cmd.Wait() // the exit status of a stopped child carries nothing
		close(p.done)
	}()
	got := map[string]string{}
	timeout := time.After(30 * time.Second)
	for len(got) < len(want) {
		select {
		case f := <-found:
			got[f[0]] = f[1]
		case <-p.done:
			return nil, nil, fmt.Errorf("%s exited before it was ready (see %s)", name, logPath)
		case <-timeout:
			p.kill()
			return nil, nil, fmt.Errorf("%s not ready after 30s (see %s)", name, logPath)
		}
	}
	vals := make([]string, len(want))
	for i, w := range want {
		vals[i] = got[w]
	}
	return p, vals, nil
}

// stop asks the process to drain (SIGTERM) and waits for it, killing
// it if it has not exited within 15 s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.kill()
	}
}

// kill ends the process at once and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.done
}

// peakRSSMB is the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// vmHWM reads VmHWM (peak resident set) from a /proc status file, in
// MiB.
func vmHWM(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", statusPath, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", statusPath)
}

// resetPeakRSS restarts this process's VmHWM from its current
// resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stopAll stops processes in order.
func stopAll(ps ...*proc) {
	for _, p := range ps {
		if p != nil {
			p.stop()
		}
	}
}
