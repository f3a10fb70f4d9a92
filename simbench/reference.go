package main

import "time"

// The benchmark shares its host with other tenants, and their load
// changes the host's speed by up to half for seconds at a time: on a
// 2-vCPU Xeon host, one debit-credit run took 1.8x as long, averaged
// over two seconds, as the same run a few seconds later, with no steal
// time. Minima over repetitions do not remove that, as a whole
// invocation can sit in a slow phase.
//
// So every simulated run is timed between two runs of a fixed reference
// kernel, and its host time is reported as a share of theirs, scaled to
// refNominal: the host time the run would take on a host where the
// kernel takes refNominal. The kernel does what the simulator does most,
// map lookups and updates and goroutine handoffs over an unbuffered
// channel, and allocates only its two channels and its goroutine, so
// the simulator's heap does not change its time. On the host above the
// debit-credit run's log time moved 0.85 times as far as the kernel's,
// and the ratio's two-second means spread a fifth as far as the run's
// own; across ten seeds, wall_s spread 0.02-0.10 of its median between
// the first and third quartiles, against 0.25-0.56 unscaled. A change
// to the simulator changes the scaled times in proportion, since the
// kernel is not the simulator's code.
//
// A kernel over a 4 MiB table of dependent loads tracked the run worse
// (its two-second ratio means spread twice as far): it measures the
// host's memory system, which other tenants load differently from its
// cores.

// refNominal is the kernel's host time the scaled times refer to, about
// its time on an idle 2-vCPU Xeon host.
const refNominal = 10 * time.Millisecond

const (
	refSteps = 60000 // map lookups
	refKeys  = 4096  // distinct map keys
)

var (
	refMap  = make(map[int]int, refKeys)
	refSink int
)

func lcg(r uint64) uint64 { return r*6364136223846793005 + 1442695040888963407 }

// refKernel runs the reference kernel once and returns its host time.
// A key found in the map is deleted and its value handed to a second
// goroutine, one handoff per two steps on average. It does not collect
// garbage first: a collection between simulated runs would start each
// run on a small heap goal, so that it collects more often than in a
// sweep, and a collection the simulator started and the kernel shares
// the P with moves only that run's time, which the median over passes
// passes over.
func refKernel() time.Duration {
	start := time.Now()
	ch := make(chan int)
	done := make(chan struct{})
	go func() {
		for v := range ch {
			refSink += v
		}
		close(done)
	}()
	r := uint64(1)
	for i := 0; i < refSteps; i++ {
		r = lcg(r)
		k := int(r>>40) % refKeys
		if v, ok := refMap[k]; ok {
			delete(refMap, k)
			ch <- v
		} else {
			refMap[k] = i
		}
	}
	close(ch)
	<-done
	return time.Since(start)
}

// scaled converts host time d, measured while the reference kernel took
// ref, to host time on a host where it takes refNominal.
func scaled(d, ref time.Duration) float64 {
	return float64(d) / float64(ref) * float64(refNominal)
}
