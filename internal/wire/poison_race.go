//go:build race

package wire

// RaceEnabled reports whether the build carries the race detector — the
// internal/race idiom. Tests consult it: the pool-backed allocation fences
// cannot count under -race (see framePool).
const RaceEnabled = true

// poisonByte is what a released frame buffer is filled with in race builds.
const poisonByte = 0xDB

// poisonReleased overwrites the whole capacity of a buffer PutBuf is about
// to pool. The pool is LIFO: the very next GetBuf gets these bytes back, so
// a reader that kept a released frame would otherwise often still see its
// old contents and pass. In race builds it decodes garbage instead — and
// the write itself is an access the detector pairs with the stale read.
func poisonReleased(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}
