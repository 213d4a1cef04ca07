package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one `nvrel serve` process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	setup  time.Duration // exec → first /readyz 200
	exited chan error
}

// startDaemon execs `nvrel serve` on an ephemeral port and waits for
// /readyz, which turns 200 only after the daemon's own warm-up solve.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s serve: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	urlC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				urlC <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(urlC)
		}
		d.exited <- cmd.Wait()
	}()
	deadline := time.After(30 * time.Second)
	select {
	case u, ok := <-urlC:
		if !ok {
			return nil, fmt.Errorf("nvrel serve exited before listening: %v", <-d.exited)
		}
		d.url = u
	case <-deadline:
		d.stop()
		return nil, fmt.Errorf("nvrel serve did not print its address within 30s")
	}
	for {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("nvrel serve not ready within 30s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM (the daemon drains and exits 0) and waits for the
// process; a daemon that does not exit within 15 s is killed.
func (d *daemon) stop() error {
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("nvrel serve ignored SIGTERM: %v", <-d.exited)
	}
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMem returns one /proc/<pid>/status memory field (VmRSS, VmHWM) in
// MiB.
func procMem(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// procSample is one reading of a process's resident set and CPU time.
type procSample struct {
	at  time.Time
	rss float64 // MiB
	cpu time.Duration
}

// procSampler reads a process's resident set and CPU time every
// sampleEvery until stopped. Memory is reported as the median resident
// set: the peak (VmHWM) of a garbage-collected process depends on when
// collections happened to run, the median much less.
type procSampler struct {
	stop chan struct{}
	done chan []procSample
}

const sampleEvery = 50 * time.Millisecond

func sampleProc(pid int) *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan []procSample, 1)}
	go func() {
		var xs []procSample
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			rss, err1 := procMem(pid, "VmRSS")
			cpu, err2 := procCPU(pid)
			if err1 == nil && err2 == nil {
				xs = append(xs, procSample{time.Now(), rss, cpu})
			}
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *procSampler) finish() []procSample {
	close(s.stop)
	return <-s.done
}

func medianRSS(xs []procSample) float64 {
	rss := make([]float64, len(xs))
	for i, x := range xs {
		rss[i] = x.rss
	}
	return median(rss)
}

// work is one answered request: when it was in flight and how many
// points it answered.
type work struct {
	start, end time.Time
	points     float64
}

// cpuPerWork is the median, over windows of the given length, of the
// process CPU time (ms) spent per point answered in the window. A
// request's points are spread evenly over the time it was in flight, so
// a window is charged for the part of each request it saw; slow requests
// and batches then do not make windows lumpy. The median over windows
// keeps a burst of contention on the shared host from moving the figure.
func cpuPerWork(xs []procSample, ws []work, window time.Duration) (float64, int) {
	var per []float64
	for a := 0; a < len(xs); {
		b := a + 1
		for b < len(xs) && xs[b].at.Sub(xs[a].at) < window {
			b++
		}
		if b == len(xs) {
			break
		}
		lo, hi := xs[a].at, xs[b].at
		var pts float64
		for _, w := range ws {
			s, e := w.start, w.end
			if s.Before(lo) {
				s = lo
			}
			if e.After(hi) {
				e = hi
			}
			if d := w.end.Sub(w.start); e.After(s) && d > 0 {
				pts += w.points * float64(e.Sub(s)) / float64(d)
			}
		}
		if pts > 0 {
			per = append(per, float64(xs[b].cpu-xs[a].cpu)/1e6/pts)
		}
		a = b
	}
	return median(per), len(per)
}

// metricsDoc is the part of GET /metrics.json the benchmark reads.
type metricsDoc struct {
	Metrics struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"metrics"`
}

func scrapeMetrics(client *http.Client, url string) (metricsDoc, error) {
	var doc metricsDoc
	resp, err := client.Get(url + "/metrics.json")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}
