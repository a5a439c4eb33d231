package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tailLevels are the percentiles a timing's tail may be reported at, in
// hundredths of a percent, highest first.
var tailLevels = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the level/10000 quantile
// among n samples.
func rank(n, level int) int {
	r := (n*level + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel returns the highest tail level (in hundredths of a percent)
// with at least minBeyond of n samples above it, or 0 when none has.
func tailLevel(n int) int {
	for _, l := range tailLevels {
		if n-rank(n, l) >= minBeyond {
			return l
		}
	}
	return 0
}

// percentile returns the nearest-rank level/10000 quantile of sorted.
func percentile(sorted []float64, level int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), level)-1]
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timing summarizes exact samples of one timing: the median and the highest
// tail percentile the sample count supports.
type timing struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	P50   float64 `json:"p50"`
	TailP string  `json:"tail_percentile,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// summarize sorts samples in place and returns their timing summary (all
// zero when there are none).
func summarize(name, unit string, samples []float64) timing {
	sort.Float64s(samples)
	t := timing{Name: name, Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return t
	}
	t.P50 = percentile(samples, 5000)
	if l := tailLevel(len(samples)); l > 0 {
		t.TailP = "p" + strconv.FormatFloat(float64(l)/100, 'f', -1, 64)
		t.Tail = percentile(samples, l)
	}
	return t
}

// sloShare is the share of attempted operations that succeeded within
// limit. ok holds the latencies of the operations that succeeded; every
// other attempted operation — failed, refused or never answered — counts
// as a miss.
func sloShare(ok []float64, attempted int, limit float64) float64 {
	if attempted == 0 {
		return 0
	}
	within := 0
	for _, v := range ok {
		if v <= limit {
			within++
		}
	}
	return float64(within) / float64(attempted)
}

// openLoopTimes returns one open-loop request's latency, timed from when it
// was due rather than from when it was sent, and how late the generator sent
// it.
func openLoopTimes(due, sent, done time.Duration) (latency, lag time.Duration) {
	return done - due, sent - due
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs clipped to [lo, hi].
// Overlapping intervals — children that ran in parallel — count once.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(children, parent.lo, parent.hi)
}

// perOp divides a CPU time delta among ops operations, in microseconds.
func perOp(before, after time.Duration, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(after-before) / float64(time.Microsecond) / float64(ops)
}

// clockTick is the kernel's USER_HZ tick that /proc reports CPU times in.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
func parseProcStatCPU(stat string) (time.Duration, error) {
	// The command name may hold spaces and parentheses; fields resume after
	// the last ')'. utime and stime are fields 14 and 15 of the line, so 12
	// and 13 of what follows the name.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the name", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procCPU returns the CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// statusMB reads one kB field of /proc/<pid>/status (pid 0 = this
// process) in MB.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected %s line %q", field, line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// rssTrace samples a process's resident set at a fixed period, so a run can
// report the median over its windows of each window's peak: one garbage
// collection landing early or late moves a single peak, not the median.
type rssTrace struct {
	pid  int
	mu   sync.Mutex
	at   []time.Time
	mb   []float64
	stop chan struct{}
	done chan struct{}
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

func traceRSS(pid int) *rssTrace {
	t := &rssTrace{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := statusMB(t.pid, "VmRSS:"); err == nil {
				t.mu.Lock()
				t.at = append(t.at, time.Now())
				t.mb = append(t.mb, mb)
				t.mu.Unlock()
			}
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

// close stops the sampler and waits for it.
func (t *rssTrace) close() {
	close(t.stop)
	<-t.done
}

// peak returns the largest sample taken within [from, to], or 0 if none.
func (t *rssTrace) peak(from, to time.Time) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := 0.0
	for i, at := range t.at {
		if !at.Before(from) && !at.After(to) {
			p = max(p, t.mb[i])
		}
	}
	return p
}

// hostTicks is the machine-wide CPU time from the first line of /proc/stat,
// in clock ticks: all of it, and the part the hypervisor ran something else
// on this machine's CPUs (steal).
type hostTicks struct{ total, steal int64 }

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of CPU time stolen between two readings.
func (h hostTicks) stealShare(before hostTicks) float64 {
	if h.total <= before.total {
		return 0
	}
	return float64(h.steal-before.steal) / float64(h.total-before.total)
}

// quietest returns, in ascending order, the indices of the half of the
// measurement slices (windows or rounds) in which the hypervisor stole the
// least CPU time (ties to the earlier slice). On a shared host a slice in
// which another guest held the CPU measures that guest as much as the
// program; the wall-clock metrics are taken over the quieter half, and the
// record keeps every slice's steal share.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}
