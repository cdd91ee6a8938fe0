package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	done chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer runs bin with args plus -addr on a free loopback port,
// logging to dir/name.log, and waits until /readyz answers 200.
func startServer(bin, name, dir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("%s exited before ready: %v (see %s)", p.name, err, p.log.Name())
		default:
		}
		if resp, err := hc.Get(p.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s (see %s)", p.name, limit, p.log.Name())
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process
// if it has not exited within ten seconds. It returns once the process
// is gone.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: done reports it
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		p.done <- <-p.done
	}
	p.log.Close()
}

// runTool runs a command line tool to completion, returning its
// combined output in the error when it fails.
func runTool(bin string, args ...string) error {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}
