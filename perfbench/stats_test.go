package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{9, 0},         // no level leaves ten samples above it
		{20, 5000},     // p50: 10 above
		{39, 5000},     // p75 would leave 9
		{40, 7500},     // p75: 10 above
		{100, 9000},    // p90: 10 above
		{999, 9500},    // p99 would leave 9
		{1000, 9900},   // p99: 10 above
		{9999, 9900},   // p99.9 would leave 9
		{10000, 9990},  // p99.9: 10 above
		{100000, 9999}, // p99.99: 10 above
	}
	for _, c := range cases {
		got := tailLevel(c.n)
		if got != c.want {
			t.Errorf("tailLevel(%d) = %d, want %d", c.n, got, c.want)
			continue
		}
		if got > 0 {
			if beyond := c.n - rank(c.n, got); beyond < minBeyond {
				t.Errorf("n=%d level %d leaves %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 9900); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 5000); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	sum := summarize("x", "us", []float64{3, 1, 2})
	if sum.P50 != 2 || sum.N != 3 || sum.TailP != "" {
		t.Errorf("summarize of three samples = %+v", sum)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSLOShareCountsFailuresAsMisses(t *testing.T) {
	ok := []float64{100, 200, 6000} // one success is over the limit
	// Five attempted: three answered, two failed or refused.
	if got, want := sloShare(ok, 5, 5000), 2.0/5; got != want {
		t.Errorf("sloShare = %v, want %v", got, want)
	}
	if got := sloShare(nil, 0, 5000); got != 0 {
		t.Errorf("sloShare with nothing attempted = %v, want 0", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	// Due at 10ms, sent 3ms late by a stalled generator, answered 1ms after
	// it was sent: the request waited 4ms from when it was due.
	lat, lag := openLoopTimes(10*time.Millisecond, 13*time.Millisecond, 14*time.Millisecond)
	if lat != 4*time.Millisecond || lag != 3*time.Millisecond {
		t.Errorf("latency %v, lag %v; want 4ms, 3ms", lat, lag)
	}
}

func TestSelfTimeSubtractsParallelChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, // worker 1
		{20, 50}, // worker 2, overlapping worker 1: 10..50 covered once
		{60, 70},
		{90, 130}, // runs past the parent: only 90..100 counts
		{-5, 2},   // starts before the parent: only 0..2 counts
	}
	// Covered: 0..2, 10..50, 60..70, 90..100 = 2+40+10+10 = 62.
	if got := selfTime(parent, children); got != 38 {
		t.Errorf("selfTime = %d, want 38", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	spans := []span{
		{id: 1, name: "op", start: 0, end: 100},
		{id: 2, parent: 1, name: "child", start: 10, end: 40},
		{id: 3, parent: 1, name: "child", start: 20, end: 50},
	}
	st := newSpanTimes(spans)
	if st.self[1] != 60 || st.childBusy[1]["child"] != 60 {
		t.Errorf("op self %v, child busy %v; want 60 and 60", st.self[1], st.childBusy[1]["child"])
	}
	rows := layerTimes(spans, st)
	if len(rows) != 2 || rows[1].name != "op" || rows[1].self != 60 || rows[0].busy != 60 {
		t.Errorf("layerTimes = %+v %+v", *rows[0], *rows[1])
	}
}

func TestPerRequestCPU(t *testing.T) {
	// /proc/<pid>/stat with a command name holding spaces and parentheses;
	// utime=150 and stime=50 ticks are fields 14 and 15.
	stat := "4242 (metis (serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 8 0 1 1 1"
	cpu, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 2*time.Second {
		t.Fatalf("cpu = %v, want 2s", cpu)
	}
	// 2s of CPU over 100k requests is 20µs per request.
	if got := perOp(0, cpu, 100000); math.Abs(got-20) > 1e-9 {
		t.Errorf("perOp = %v µs, want 20", got)
	}
	if got := perOp(time.Second, 3*time.Second, 0); got != 0 {
		t.Errorf("perOp with no requests = %v, want 0", got)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("parseProcStatCPU accepted a line without a command name")
	}
}

func TestQuietestKeepsLeastStolenHalf(t *testing.T) {
	got := quietest([]float64{0.3, 0, 0.1, 0.1, 0.2})
	want := []int{1, 2, 3} // three of five; the tie at 0.1 keeps both
	if len(got) != len(want) {
		t.Fatalf("quietest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietest = %v, want %v", got, want)
		}
	}
	if got := quietest(nil); len(got) != 0 {
		t.Errorf("quietest(nil) = %v", got)
	}
}
