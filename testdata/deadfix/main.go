// Command deadfix is the dead-code fence's own fixture: one dead function,
// one dead field and one counter nothing reads beside declarations only a
// type checker sees are used.
package main

import (
	"encoding/json"
	"fmt"
)

// Box is generic; Get is reached only through Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

type shape interface{ area() float64 }

// square.area is called only through shape.
type square struct{ side float64 }

func (s square) area() float64 { return s.side * s.side }

// Ledger's Owner is touched only by encoding/json; memo by nothing; bumps
// is only ever incremented, entries incremented and read.
type Ledger struct {
	Owner   string `json:"owner"`
	memo    int
	bumps   int
	entries int
}

func (l *Ledger) add() int {
	l.bumps++
	l.entries += 1
	return l.entries
}

func orphan() int { return orphan() + 1 }

func main() {
	var s shape = square{side: 2}
	b := Box[int]{v: 3}
	var l Ledger
	out, _ := json.Marshal(l)
	fmt.Println(s.area(), b.Get(), l.add(), string(out))
}
