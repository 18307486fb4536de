package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a list of measurements; durations are added in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailOK reports whether a p-quantile has at least ten samples beyond
// it, the condition for reporting that percentile at all.
func (s samples) tailOK(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a live process's user plus system CPU time, from
// /proc/<pid>/stat (in clock ticks of 10ms).
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// cpuTicks is the machine's cumulative CPU time from /proc/stat: the
// steal column and the sum of all columns, in clock ticks.
type cpuTicks struct{ steal, total int64 }

func hostSteal() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	var t cpuTicks
	if len(f) < 9 {
		return t
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of CPU time stolen between t0 and t, in percent.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
