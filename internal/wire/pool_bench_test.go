package wire_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// handoffSink keeps the consumers' reads of each frame observable.
var handoffSink atomic.Uint32

// BenchmarkFramePoolHandoff reproduces in-tree what the live tier does to
// the frame pool and a single goroutine on an idle pool never shows: many
// goroutines taking buffers on one side (node.transmit, FrameReader) while
// others release them on the other (peer writers, node.deliver). Eight
// producers GetBuf, write an 18-byte frame — the acs frame size — and hand
// bursts of eight to eight consumers, which read each frame and PutBuf it.
// An op is one frame (rounded up to whole bursts); run it with -cpu 2, the
// reference host's width. The burst travels by value, so nothing but the
// pool can allocate: 0 allocs/op in steady state.
func BenchmarkFramePoolHandoff(b *testing.B) {
	const workers, burstLen = 8, 8
	type burst [burstLen][]byte
	var payload [18]byte
	bursts := (b.N + workers*burstLen - 1) / (workers * burstLen)
	ch := make(chan burst, workers)
	var producers, consumers sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			var sum byte
			for bu := range ch {
				for _, f := range bu {
					sum += f[len(f)-1]
					wire.PutBuf(f)
				}
			}
			handoffSink.Add(uint32(sum))
		}()
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < bursts; i++ {
				var bu burst
				for j := range bu {
					bu[j] = append(wire.GetBuf(), payload[:]...)
				}
				ch <- bu
			}
		}()
	}
	producers.Wait()
	close(ch)
	consumers.Wait()
}
