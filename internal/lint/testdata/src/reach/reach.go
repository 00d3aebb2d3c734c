// Package reach is a lint fixture: an exported name that no product
// code reaches is reported. Tests (reach_test.go is never loaded) and
// benchmark/ packages do not count as callers; app is the product.
package reach

import "fmt"

// Used is called by app.
func Used() int { return helper() }

func helper() int { return Code(1).value() }

func OnlyTests() {} // want "OnlyTests is reached"

func OnlyBench() {} // want "OnlyBench is reached"

// Orphan is reached by nothing, so its own call of Helper does not count.
func Orphan() { Helper() } // want "Orphan is reached"

func Helper() {} // want "Helper is reached"

// dead is unexported and unreached: what it names is not reached either.
func dead() { DeadCallee() }

func DeadCallee() {} // want "DeadCallee is reached"

// registry's initialiser runs at init, so ViaInit is reached.
var registry = map[string]func(){"v": ViaInit}

func ViaInit() {}

const Limit = 3 // want "Limit is reached"

var Verbose bool // want "Verbose is reached"

// Shape is called through by app, but only for Area.
type Shape interface {
	Area() float64
	Perimeter() float64 // want "Shape.Perimeter is reached"
}

type Square struct {
	Side  float64
	Color string // want "Square.Color is reached"
}

// Area is reached only through Shape.Area.
func (s *Square) Area() float64 { return s.Side * s.Side }

func (s *Square) Perimeter() float64 { return 4 * s.Side } // want "Square.Perimeter is reached"

// Diagonal is an accessor other packages' tests read.
//
//lint:allow reach inspection accessor: tests read it
func (s *Square) Diagonal() float64 { return 1.41421356 * s.Side }

// Describe asks its argument for a method through a function-local
// interface; Box.Framed is reached only that way.
func Describe(x any) string {
	if f, ok := x.(interface{ Framed() bool }); ok && f.Framed() {
		return "framed"
	}
	return fmt.Sprint(x)
}

type Box struct{}

func (Box) Framed() bool { return true }

func (Box) Unframe() {} // want "Box.Unframe is reached"

// Code's String and Err's Error and Unwrap are called by the library
// (fmt.Stringer, error, errors.Unwrap), never by name.
type Code int

func (c Code) String() string { return fmt.Sprintf("code %d", int(c)) }

func (c Code) value() int { return int(c) }

type Err struct{}

func (Err) Error() string { return "err" }

func (Err) Unwrap() error { return nil }

// A dead type is reported once, its members with it.
type Ghost struct{ X int } // want "Ghost is reached"

func (Ghost) Boo() {}

// Stale is reached by app, so its directive suppresses nothing.
//
//lint:allow reach a stale directive // want "stale directive: //lint:allow reach"
func Stale() {}

// RunOptions is an options struct: an exported field must also be set
// by product code, not only read.
type RunOptions struct {
	Name    string     // app keys it in a composite literal
	Workers int        // want "RunOptions.Workers is set by no product code"
	Quiet   bool       // app binds it through flag.BoolVar(&o.Quiet, ...)
	Net     NetOptions // app binds &o.Net.Port, which writes Net too
	Limit   int        // want "RunOptions.Limit is set by no product code"
	// Depth is set only by the benchmark package.
	//
	//lint:allow reach benchmark-only: benchmark.Run sets it
	Depth int
	//lint:allow reach a stale directive // want "stale directive: //lint:allow reach"
	Label string
}

type NetOptions struct{ Port int }

// withDefaults fills Limit, which does not count as setting it.
func (o RunOptions) withDefaults() RunOptions {
	if o.Limit == 0 {
		o.Limit = 4
	}
	return o
}

// Start reads every option.
func Start(o RunOptions) string {
	o = o.withDefaults()
	return fmt.Sprint(o.Name, o.Workers, o.Quiet, o.Net.Port, o.Limit, o.Depth, o.Label)
}
