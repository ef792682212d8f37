package cluster

import "testing"

// QueueDrainBench measures the bounded per-edge queue's push/popBatch
// round trip — the per-burst lock cost the batched writers pay. It is an
// exported testing.B function (rather than a _test.go benchmark) so the
// repo benchmark (bench/, cluster.queue_drain_ns_per_frame) can run it
// through testing.Benchmark from a normal binary while the queue type
// stays unexported. Steady state must not allocate: TestQueueBatchAllocBudget
// pins that.
func QueueDrainBench(b *testing.B) {
	q := newQueue[[]byte](DefaultQueueCap)
	frame := make([]byte, 64)
	batch := make([][]byte, 0, maxBatchFrames)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := maxBatchFrames
		if done+k > b.N {
			k = b.N - done
		}
		for j := 0; j < k; j++ {
			q.tryPush(frame)
		}
		for k > 0 {
			var ok bool
			if batch, ok = q.popBatch(batch); !ok {
				b.Fatal("queue closed mid-bench")
			}
			k -= len(batch)
			done += len(batch)
		}
	}
}
