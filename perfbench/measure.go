package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// unitSample is what one timed unit (a full pass or an epoch) cost.
type unitSample struct {
	docs     int
	wall     time.Duration
	cpu      time.Duration // user+system of the process and its reaped children
	childCPU time.Duration // the children's share of cpu
	alloc    uint64        // Go heap bytes allocated by this process
	peakHeap uint64        // highest sampled Go heap in use
	gcCycles uint64
	gcPause  time.Duration
}

// meter samples the Go heap in the background so each unit can report its
// peak, and reads the process counters around units.
type meter struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const (
	heapInUse = "/memory/classes/heap/objects:bytes"
	heapAlloc = "/gc/heap/allocs:bytes"
	gcCycles  = "/gc/cycles/total:gc-cycles"
)

// heapSamplePeriod trades sampler wake-ups for peak resolution: a 20 ms
// epoch still gets four samples, and the unit's end adds one.
const heapSamplePeriod = 5 * time.Millisecond

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapInUse}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				m.raisePeak(s[0].Value.Uint64())
			}
		}
	}()
	return m
}

func (m *meter) raisePeak(v uint64) {
	for {
		cur := m.peak.Load()
		if v <= cur || m.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// close stops the sampler and waits for it to exit.
func (m *meter) close() {
	close(m.stop)
	<-m.done
}

type probe struct {
	start         time.Time
	self, child   time.Duration
	alloc, cycles uint64
	pause         time.Duration
	samples       []metrics.Sample
	gcStats       debug.GCStats
}

// begin settles the GC, reads the counters, and starts the unit's clock.
func (m *meter) begin() *probe {
	runtime.GC()
	p := &probe{samples: []metrics.Sample{{Name: heapAlloc}, {Name: gcCycles}, {Name: heapInUse}}}
	debug.ReadGCStats(&p.gcStats)
	p.pause = p.gcStats.PauseTotal
	p.self, p.child = rusage()
	metrics.Read(p.samples)
	p.alloc = p.samples[0].Value.Uint64()
	p.cycles = p.samples[1].Value.Uint64()
	m.peak.Store(p.samples[2].Value.Uint64())
	p.start = time.Now()
	return p
}

// end stops the unit's clock and returns its costs.
func (m *meter) end(p *probe, docs int) unitSample {
	wall := time.Since(p.start)
	self, child := rusage()
	metrics.Read(p.samples)
	m.raisePeak(p.samples[2].Value.Uint64())
	debug.ReadGCStats(&p.gcStats)
	return unitSample{
		docs:     docs,
		wall:     wall,
		cpu:      self - p.self + child - p.child,
		childCPU: child - p.child,
		alloc:    p.samples[0].Value.Uint64() - p.alloc,
		peakHeap: m.peak.Load(),
		gcCycles: p.samples[1].Value.Uint64() - p.cycles,
		gcPause:  p.gcStats.PauseTotal - p.pause,
	}
}

// rusage returns the CPU time of this process and of its reaped children.
func rusage() (self, children time.Duration) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = tv(ru.Utime) + tv(ru.Stime)
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = tv(ru.Utime) + tv(ru.Stime)
	}
	return self, children
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// endToEnd reduces unit samples and query latencies to the end-to-end
// metrics: every wall-clock figure is a median over units.
func endToEnd(units []unitSample, queryUS []float64) map[string]float64 {
	var dps, wallMS, cpu, alloc, peak []float64
	for _, u := range units {
		if u.docs == 0 || u.wall <= 0 {
			continue
		}
		dps = append(dps, float64(u.docs)/u.wall.Seconds())
		wallMS = append(wallMS, ms(u.wall))
		cpu = append(cpu, ms(u.cpu)/(float64(u.docs)/1000))
		alloc = append(alloc, float64(u.alloc)/float64(u.docs)/1024)
		peak = append(peak, float64(u.peakHeap)/1e6)
	}
	return map[string]float64{
		"docs_per_s":       median(dps),
		"epoch_p50_ms":     median(wallMS),
		"cpu_ms_per_kdoc":  median(cpu),
		"alloc_kb_per_doc": median(alloc),
		"peak_heap_mb":     median(peak),
		"query_p50_us":     median(queryUS),
	}
}
