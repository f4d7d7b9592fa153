package main

// Checks of served results against the library. The references are
// computed in this process, outside the timed region, from the same inputs
// the daemon received.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"

	pmsynth "repro"
	"repro/client"
)

// synthRef is the library's answer to one synthesize input.
type synthRef struct {
	row      client.Row
	artifact [32]byte
	err      error
}

type synthID struct {
	source string
	budget int
	order  pmsynth.Order
	emit   string
}

func (in synthInput) id() synthID {
	return synthID{source: in.source, budget: in.opt.Budget, order: in.opt.Order, emit: in.emit}
}

type sweepID struct{ source, spec string }

func (in sweepInput) id() sweepID { return sweepID{source: in.source, spec: fmt.Sprint(in.spec)} }

func clientRow(r pmsynth.Row) client.Row {
	return client.Row{
		Circuit: r.Circuit, Steps: r.Steps, PMMuxes: r.PMMuxes, AreaIncrease: r.AreaIncrease,
		Mux: r.Mux, Comp: r.Comp, Add: r.Add, Sub: r.Sub, Mul: r.Mul,
		PowerReductionPct: r.PowerReductionPct,
	}
}

func librarySynth(in synthInput) synthRef {
	d, err := pmsynth.Compile(in.source)
	if err != nil {
		return synthRef{err: err}
	}
	syn, err := pmsynth.Synthesize(d, in.opt)
	if err != nil {
		return synthRef{err: err}
	}
	ref := synthRef{row: clientRow(syn.Row())}
	var text string
	switch in.emit {
	case "vhdl":
		text, err = syn.VHDL()
	case "verilog":
		text, err = syn.Verilog()
	}
	if err != nil {
		return synthRef{err: err}
	}
	if in.emit != "" {
		ref.artifact = sha256.Sum256([]byte(text))
	}
	return ref
}

func librarySweep(in sweepInput) (string, error) {
	d, err := pmsynth.Compile(in.source)
	if err != nil {
		return "", err
	}
	spec := in.spec
	spec.Workers = 1
	sr, err := pmsynth.Sweep(d, spec)
	if err != nil {
		return "", err
	}
	return sr.Table(), nil
}

// parallel runs fn(i) for i in [0, n) on one goroutine per CPU.
func parallel(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// checkServed counts served responses that differ from the library result
// for the same input: synthesize rows and requested RTL text, and sweep
// tables byte for byte.
func checkServed(synths []served, sweeps []sweepServed) (int, []string) {
	index := map[synthID]int{}
	var inputs []synthInput
	for _, s := range synths {
		if _, ok := index[s.in.id()]; !ok {
			index[s.in.id()] = len(inputs)
			inputs = append(inputs, s.in)
		}
	}
	refs := make([]synthRef, len(inputs))
	parallel(len(inputs), func(i int) { refs[i] = librarySynth(inputs[i]) })

	sweepIndex := map[sweepID]int{}
	var sweepInputs []sweepInput
	for _, s := range sweeps {
		if _, ok := sweepIndex[s.in.id()]; !ok {
			sweepIndex[s.in.id()] = len(sweepInputs)
			sweepInputs = append(sweepInputs, s.in)
		}
	}
	tables := make([]string, len(sweepInputs))
	tableErrs := make([]error, len(sweepInputs))
	parallel(len(sweepInputs), func(i int) { tables[i], tableErrs[i] = librarySweep(sweepInputs[i]) })

	bad := 0
	var notes []string
	note := func(format string, args ...interface{}) {
		bad++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range synths {
		ref := refs[index[s.in.id()]]
		switch {
		case ref.err != nil:
			note("synthesize answered but the library failed: %v", ref.err)
		case s.row != ref.row:
			note("served row %+v, library row %+v", s.row, ref.row)
		case s.artifact != ref.artifact:
			note("served %s text differs from the library's for %s", s.in.emit, ref.row.Circuit)
		}
	}
	for _, s := range sweeps {
		i := sweepIndex[s.in.id()]
		switch {
		case tableErrs[i] != nil:
			note("sweep answered but the library failed: %v", tableErrs[i])
		case s.table != tables[i]:
			note("served table of job %s differs from the library's", s.job.ID)
		}
	}
	return bad, notes
}
