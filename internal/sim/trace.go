package sim

import (
	"fmt"
	"sort"
	"strings"
)

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceCompute TraceKind = iota // useful work
	TraceWait                     // blocked in a busy-wait
	TraceService                  // blocked in memory-module service
)

func (k TraceKind) String() string {
	switch k {
	case TraceCompute:
		return "compute"
	case TraceWait:
		return "wait"
	case TraceService:
		return "service"
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// TraceEvent is one recorded interval of a processor's life.
type TraceEvent struct {
	Proc       int
	Iter       int64
	Start, End int64
	Kind       TraceKind
	Tag        string
}

// EnableTrace turns on event recording; call before Run*.
func (m *Machine) EnableTrace() { m.tracing = true }

// Trace returns the recorded events sorted by (start, proc).
func (m *Machine) Trace() []TraceEvent {
	out := append([]TraceEvent(nil), m.traceEvents...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// addTrace records one interval when the machine is tracing. It takes the
// op's label by reference, so an untraced run never copies one.
func (m *Machine) addTrace(p *proc, start, end int64, kind TraceKind, tag *Label) {
	if !m.tracing || end <= start {
		return
	}
	m.traceEvents = append(m.traceEvents, TraceEvent{
		Proc: p.id, Iter: p.iter, Start: start, End: end, Kind: kind, Tag: m.Render(*tag),
	})
}

// TraceTimeline renders the trace as one text lane per processor, scaled to
// the given width: '#' compute, '.' busy-wait, '~' module service.
func TraceTimeline(events []TraceEvent, procs int, cycles int64, width int) string {
	if width < 10 {
		width = 10
	}
	if cycles < 1 {
		cycles = 1
	}
	lanes := make([][]byte, procs)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(" ", width))
	}
	glyph := map[TraceKind]byte{TraceCompute: '#', TraceWait: '.', TraceService: '~'}
	at := func(t int64) int {
		c := int(t * int64(width) / cycles)
		if c >= width {
			c = width - 1
		}
		return c
	}
	// Compute wins over waits when intervals share a cell.
	order := []TraceKind{TraceWait, TraceService, TraceCompute}
	for _, kind := range order {
		for _, e := range events {
			if e.Kind != kind || e.Proc >= procs {
				continue
			}
			for c := at(e.Start); c <= at(e.End-1); c++ {
				lanes[e.Proc][c] = glyph[kind]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "0%*s%d cycles\n", width-1, "", cycles)
	for i, lane := range lanes {
		fmt.Fprintf(&b, "P%-2d |%s|\n", i, lane)
	}
	b.WriteString("     # compute   . busy-wait   ~ module service\n")
	return b.String()
}
