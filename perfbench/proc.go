package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

var errNoDaemon = errors.New("--primacyd is required for this workload")

// daemon is a primacyd process the benchmark started.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	log  bytes.Buffer
}

var (
	daemonsMu sync.Mutex
	daemons   = map[*daemon]bool{}
)

// startDaemon launches primacyd on a free local port with extra flags and
// waits until /readyz answers.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	if bin == "" {
		return nil, errNoDaemon
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append([]string{"-addr", addr, "-quiet", "-log-level", "error", "-slow-request-ms", "0"}, flags...)
	d := &daemon{cmd: exec.Command(bin, argv...), base: "http://" + addr, done: make(chan struct{})}
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	daemonsMu.Lock()
	daemons[d] = true
	daemonsMu.Unlock()
	go func() { d.cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("primacyd exited during start-up: %s", d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("primacyd not ready after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it lingers, and waits
// for it to exit.
func (d *daemon) stop() {
	daemonsMu.Lock()
	live := daemons[d]
	delete(daemons, d)
	daemonsMu.Unlock()
	if !live {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	daemonsMu.Lock()
	ds := make([]*daemon, 0, len(daemons))
	for d := range daemons {
		ds = append(ds, d)
	}
	daemonsMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads VmHWM (peak resident set) of pid, or of this process when
// pid is 0, in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuJiffies returns the steal and total jiffies of the "cpu" line of
// /proc/stat; zeros where it cannot be read.
func cpuJiffies() (steal, total float64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// scrape fetches the daemon's /metrics and returns every sample keyed by
// its series text (name plus labels).
func (d *daemon) scrape(ctx context.Context) (samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := samples{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// samples is a parsed Prometheus text exposition.
type samples map[string]float64

// sum adds every sample of metric name whose labels contain all of the
// given label pairs (for example `route="compress"`).
func (s samples) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after.sum − before.sum for the same selection.
func delta(before, after samples, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
