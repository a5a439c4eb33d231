package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one metis-serve process the benchmark started.
type daemon struct {
	cmd   *exec.Cmd
	sock  string
	log   *os.File
	exit  chan error
	ctrl  net.Conn
	ended bool
}

// startDaemon launches bin with args, its output appended to logPath, and
// waits until its socket at sock answers a control request.
func startDaemon(bin, sock, logPath string, args []string) (*daemon, error) {
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, sock: sock, log: log, exit: make(chan error, 1)}
	go func() { d.exit <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-d.exit:
			d.ended = true
			log.Close()
			return nil, fmt.Errorf("metis-serve exited during start-up (%v); see %s", err, logPath)
		default:
		}
		if c, err := net.Dial("unix", sock); err == nil {
			d.ctrl = c
			if _, err := d.control("models"); err == nil {
				return d, nil
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("metis-serve did not answer on %s within 30s", sock)
		}
		// A fine poll: start-up takes about ten milliseconds, and a coarse
		// one would round set-up time to its step.
		time.Sleep(250 * time.Microsecond)
	}
}

// control sends one control request over the daemon's v1 control
// connection and returns the JSON body of the answer.
func (d *daemon) control(op string) ([]byte, error) {
	req, err := serve.ControlRequest(op, "", "")
	if err != nil {
		return nil, err
	}
	if err := serve.WriteFrame(d.ctrl, req); err != nil {
		return nil, fmt.Errorf("control %s: %w", op, err)
	}
	resp, err := serve.ReadFrame(d.ctrl, nil)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", op, err)
	}
	if serve.FrameKind(resp) != "MTJ1" {
		status, msg, _ := serve.DecodeErrorPayload(resp)
		return nil, fmt.Errorf("control %s: status %d: %s", op, status, msg)
	}
	return serve.FrameBody(resp), nil
}

// daemonStats is the part of the /v2/stats document the benchmark reads.
type daemonStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Latency  struct {
		Count  int64   `json:"count"`
		MeanUS float64 `json:"mean_us"`
	} `json:"latency"`
	SHM struct {
		Wakes int64 `json:"wakes"`
	} `json:"shm"`
	Shadow struct {
		Sampled int64 `json:"sampled"`
		Dropped int64 `json:"dropped"`
		Scored  int64 `json:"scored"`
		Refits  int64 `json:"refits"`
	} `json:"shadow"`
	Tenants map[string]struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
		Shed     int64 `json:"shed"`
	} `json:"tenants"`
}

func (d *daemon) stats() (*daemonStats, error) {
	body, err := d.control("stats")
	if err != nil {
		return nil, err
	}
	var s daemonStats
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return &s, nil
}

// checkErrors fails the run if the daemon counted errors between two
// stats snapshots: a correct run has none.
func checkErrors(r *report, a, b *daemonStats) {
	if n := b.Errors - a.Errors; n > 0 {
		r.fail(fmt.Errorf("daemon counted %d errors", n))
	}
}

// engineMeanUS is the mean engine latency of the calls between two stats
// snapshots.
func engineMeanUS(a, b *daemonStats) float64 {
	n := b.Latency.Count - a.Latency.Count
	if n <= 0 {
		return 0
	}
	sum := b.Latency.MeanUS*float64(b.Latency.Count) - a.Latency.MeanUS*float64(a.Latency.Count)
	return sum / float64(n)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop ends the daemon with SIGTERM, killing it if it has not exited
// within 10 seconds, and waits for it.
func (d *daemon) stop() {
	if d.ctrl != nil {
		d.ctrl.Close()
	}
	if d.ended {
		return
	}
	d.ended = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
	}
	d.log.Close()
}
