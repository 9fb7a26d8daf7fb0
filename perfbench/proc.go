package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a started dlsd may take to answer /healthz.
const readyTimeout = 15 * time.Second

// dlsd is one running server process on an ephemeral loopback port.
type dlsd struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:<port>
	exited chan struct{} // closed once Wait returned
	stderr *tailBuffer
}

// procs tracks every started server so that any exit path can stop them.
var procs struct {
	mu   sync.Mutex
	live map[*dlsd]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDlsd launches the dlsd binary with default settings plus the given
// tracing switch and waits until it answers /healthz. The port is chosen
// just before the launch; a launch that loses the port to another process
// is retried on a fresh one.
func startDlsd(bin string, trace bool) (*dlsd, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("choosing a port: %w", err)
		}
		d, err := launch(bin, port, trace)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin string, port int, trace bool) (*dlsd, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-trace="+strconv.FormatBool(trace))
	// The server dies with the benchmark even if the benchmark is killed
	// before it can stop the server itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &dlsd{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), stderr: &tailBuffer{max: 8 << 10}}
	cmd.Stderr = d.stderr
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*dlsd]bool)
	}
	if err := cmd.Start(); err != nil {
		procs.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	procs.live[d] = true
	procs.mu.Unlock()
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is reported through stderr
		close(d.exited)
	}()
	if err := d.waitReady(); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200, the process exits, or
// readyTimeout passes.
func (d *dlsd) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("dlsd exited before becoming ready: %s", d.stderr.String())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dlsd not ready after %v: %s", readyTimeout, d.stderr.String())
}

func (d *dlsd) pid() int { return d.cmd.Process.Pid }

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within five seconds, and waits for it.
func (d *dlsd) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
	}
	d.kill()
}

// kill ends the server at once and waits for it.
func (d *dlsd) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
	procs.mu.Lock()
	delete(procs.live, d)
	procs.mu.Unlock()
}

// killAll kills every server still running.
func killAll() {
	procs.mu.Lock()
	live := make([]*dlsd, 0, len(procs.live))
	for d := range procs.live {
		live = append(live, d)
	}
	procs.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
}

// procCPU returns the user+system CPU a process has used, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
