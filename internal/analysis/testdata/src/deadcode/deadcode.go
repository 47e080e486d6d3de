// Package deadcode exercises the dead-code rule: every function, method
// and package-level var or const needs a use outside tests and outside its
// own declaration.
package deadcode

import "fmt"

// init is exempt, and it roots every use below.
func init() {
	var s shape = square{2}
	_ = s.Area()
	_ = fmt.Sprint(&named{"n"})
	var b box[int]
	_ = b.Get()
	inc := counter{}.Inc
	_ = inc()
	_ = apply(double)
	_ = levelHigh
	read := tally.Inc
	_ = read()
}

// Flagged.

func unused() {} // want "deadcode.unused has no use"

// TestedOnly is called only from deadcode_test.go, which magnet-vet never
// loads.
func TestedOnly() int { return 1 } // want "deadcode.TestedOnly has no use"

// orphanHelper lost its last caller.
func orphanHelper() int { return 2 } // want "deadcode.orphanHelper has no use"

// countdown only calls itself.
func countdown(n int) int { // want "deadcode.countdown has no use"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// unusedVar is read by nothing.
var unusedVar = 3 // want "deadcode.unusedVar has no use"

// unusedConst is read by nothing.
const unusedConst = "x" // want "deadcode.unusedConst has no use"

// Not flagged.

type level int

// levelLow is never named, but deleting it would renumber levelHigh.
const (
	levelLow level = iota
	levelHigh
)

// tally is read only through its method value tally.Inc.
var tally counter

type shape interface{ Area() int }

type square struct{ side int }

// Area satisfies the local shape interface; its one call goes through it.
func (s square) Area() int { return s.side * s.side }

type named struct{ name string }

// String satisfies fmt.Stringer through a pointer receiver.
func (n *named) String() string { return n.name }

type box[T any] struct{ v T }

// Get is called through the instantiation box[int].
func (b box[T]) Get() T { return b.v }

type counter struct{ n int }

// Inc is used as a method value.
func (c counter) Inc() int { return c.n + 1 }

// double is passed as a function value.
func double(x int) int { return 2 * x }

func apply(f func(int) int) int { return f(1) }

type firster interface{ First() string }

type source[K ~string] struct{ keys []K }

// First satisfies firster only once instantiated as source[string].
func (s source[K]) First() K { return s.keys[0] }

var _ firster = source[string]{}

// kept is a documented entry point no code in this package calls.
func kept() {} //magnet-vet:ignore deadcode // a library entry point
