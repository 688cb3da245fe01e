package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleetProc is one launched set of lecd processes: a single node, or a
// fleet whose members are peered with -peers.
type fleetProc struct {
	addrs []string
	cmds  []*exec.Cmd
	args  [][]string
	ctl   *http.Client // control-plane reads: health, stats, bumps
}

// startFleet launches w.nodes lecd processes on free loopback ports and
// waits until each answers /healthz.
func startFleet(lecd, catalogPath string, w *workloadDef, logDir string) (*fleetProc, error) {
	f := &fleetProc{ctl: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	for i := 0; i < w.nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	for i, addr := range f.addrs {
		args := []string{"-catalog", catalogPath, "-addr", addr}
		if w.nodes > 1 {
			args = append(args, "-peers", strings.Join(f.addrs, ","))
		}
		args = append(args, w.flags...)
		log, err := os.Create(fmt.Sprintf("%s/lecd-%d.log", logDir, i))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(lecd, args...)
		cmd.Stdout, cmd.Stderr = log, log
		// lecd dies with the benchmark even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		log.Close()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("start lecd: %w", err)
		}
		f.cmds = append(f.cmds, cmd)
		f.args = append(f.args, args)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, addr := range f.addrs {
		for {
			resp, err := f.ctl.Get("http://" + addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("lecd at %s did not become healthy", addr)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return f, nil
}

// stop terminates every process and waits for each to exit.
func (f *fleetProc) stop() {
	for _, c := range f.cmds {
		if c.Process != nil {
			c.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, c := range f.cmds {
		done := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(done) }(c)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			c.Process.Kill()
			<-done
		}
	}
	f.cmds = nil
	f.ctl.CloseIdleConnections()
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// cpuTicks sums user+system CPU clock ticks of every lecd process
// (fields 14 and 15 of /proc/<pid>/stat).
func (f *fleetProc) cpuTicks() (int64, error) {
	var total int64
	for _, c := range f.cmds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; fields count from after ')'.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", c.Process.Pid)
		}
		for _, fld := range fields[11:13] {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 on every architecture this benchmark runs on.
const clockTick = 10 * time.Millisecond

// peakRSSMB is the largest VmHWM across the lecd processes, in MiB.
func (f *fleetProc) peakRSSMB() (float64, error) {
	best := 0.0
	for _, c := range f.cmds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, err
				}
				if mb := kb / 1024; mb > best {
					best = mb
				}
			}
		}
	}
	if best == 0 {
		return 0, errors.New("no VmHWM in /proc status")
	}
	return best, nil
}

// lecdStats is the subset of serve.Stats that /statsz reports and the
// benchmark reads.
type lecdStats struct {
	Requests, Optimizations           int64
	CacheHits, CacheMisses, Coalesced int64
	Shed, PressureDegraded            int64
	ConfiguredParallelism             int
	Enumeration, Tier                 string
}

func (f *fleetProc) stats(node int) (lecdStats, error) {
	var st lecdStats
	err := f.getJSON(node, "/statsz", &st)
	return st, err
}

// sumStats adds the counters of every node.
func (f *fleetProc) sumStats() (lecdStats, error) {
	var sum lecdStats
	for i := range f.addrs {
		st, err := f.stats(i)
		if err != nil {
			return sum, err
		}
		sum.Requests += st.Requests
		sum.Optimizations += st.Optimizations
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.Coalesced += st.Coalesced
		sum.Shed += st.Shed
		sum.PressureDegraded += st.PressureDegraded
	}
	return sum, nil
}

func (f *fleetProc) getJSON(node int, path string, v any) error {
	resp, err := f.ctl.Get("http://" + f.addrs[node] + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// bump raises the catalog generation of one node to gen through the peer
// protocol; the fleet spreads it to the other node on the next contact.
func (f *fleetProc) bump(node int, gen uint64) error {
	body, _ := json.Marshal(map[string]uint64{"generation": gen})
	resp, err := f.ctl.Post("http://"+f.addrs[node]+"/fleet/v1/propagate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("propagate: %s", resp.Status)
	}
	return nil
}

// hostTicks is the aggregate CPU line of /proc/stat.
type hostTicks struct{ total, steal int64 }

// readHostTicks reads the host's CPU time counters; zero when unreadable,
// which reads as no steal.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

func (h hostTicks) stealPctSince(before hostTicks) float64 {
	if d := h.total - before.total; d > 0 {
		return 100 * float64(h.steal-before.steal) / float64(d)
	}
	return 0
}
