package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one `watchman serve` process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	args []string
	done chan struct{}
	err  error // the process's exit status, set before done closes
}

// freeAddr picks a loopback port the kernel reports unused.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs `watchman serve` and returns once /healthz answers
// 200, with the nanoseconds from exec to that answer: the daemon's set-up
// time, including any snapshot restore.
func startDaemon(bin string, flags []string, logPath string) (*daemon, int64, error) {
	return startServer(bin, func(addr string) []string {
		return append([]string{"serve", "-addr", addr}, flags...)
	}, logPath)
}

// startServer execs bin with the arguments args builds for a free
// loopback address and waits until the process answers GET /healthz.
func startServer(bin string, args func(addr string) []string, logPath string) (*daemon, int64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	argv := args(addr)
	d := &daemon{cmd: exec.Command(bin, argv...), addr: addr, args: argv, done: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = log, log
	// A benchmark that dies must not leave a daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := nanos()
	if err := d.cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		log.Close()
		close(d.done)
	}()
	probe := httpGet("/healthz")
	// Poll on a precise timer: the runtime's millisecond timer grid would
	// add up to a millisecond of the poller's own lateness to set-up time.
	defer lockPreciseTimer()()
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("daemon exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if nanos()-t0 > int64(30*time.Second) {
			d.kill()
			return nil, 0, fmt.Errorf("daemon did not answer /healthz within 30s; see %s", logPath)
		}
		c, err := dial(addr)
		if err != nil {
			preciseSleepUntil(nanos() + int64(100*time.Microsecond))
			continue
		}
		status, _, err := c.do(probe, 5*time.Second)
		c.Close()
		if err == nil && status == 200 {
			return d, nanos() - t0, nil
		}
		preciseSleepUntil(nanos() + int64(100*time.Microsecond))
	}
}

// stop sends SIGTERM and waits for the exit. It reports an error for an
// exit status other than 0 or a daemon that does not exit within 20s
// (which is then killed): both count as a failed operation.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("daemon did not exit within 20s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("daemon exited uncleanly on SIGTERM: %w", d.err)
	}
	return nil
}

// kill stops the daemon unconditionally and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.done
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux architecture Go supports.
const clkTck = 100

// cpuMillis reads the daemon's user+system CPU time in milliseconds.
func (d *daemon) cpuMillis() (float64, error) { return procCPUMillis(fmt.Sprint(d.cmd.Process.Pid)) }

// procCPUMillis reads a process's user+system CPU time in milliseconds;
// pid "self" is the benchmark itself.
func procCPUMillis(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 1000 / clkTck, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serveNull serves the null handler on addr until SIGTERM or interrupt:
// the traced run's null daemon, a process whose handler does nothing, so
// an open loop against it measures the client, the transport and the
// scheduler's wake-ups without the cache.
func serveNull(addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: nullHandler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shut, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shut)
}
