package cache

import (
	"crypto/sha256"
	"reflect"
	"strconv"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// canonVersion prefixes every canonical encoding. Bump it whenever the
// encoding or the meaning of any encoded field changes, so stale entries
// from an older canonical form can never be served.
const canonVersion = "dsserve-canon-v1"

// canonBuf is the stack buffer a preimage is appended into. Every built-in
// workload's preimage fits, so keying one allocates nothing; a larger
// program grows the slice onto the heap.
const canonBuf = 1024

// RequestKey is the content address of one evaluation request: a canonical
// hash of the workload's program AST, the scheme descriptor and the
// simulator configuration.
//
// Canonicalization covers everything the deterministic simulator's output
// depends on: loop index names and bounds, the body tree (statement names,
// costs, and affine read/write references; branch node names and both
// arms), the scheme's parameterized name (schemes render their parameters
// into Name(), e.g. "process(X=8,improved)"), and every Config field.
// Statement semantics are functions and cannot be hashed directly, but they
// are determined by the workload identity the AST encodes: builtin
// workloads bind semantics to their (named) statement structure, and
// .do-file workloads derive semantics from exactly the parsed AST.
//
// The preimage is appended into one buffer and hashed in one call; its
// bytes are the ones the original fmt-based writer produced, so no
// address changed with the encoder (TestGoldenKeys pins them).
func RequestKey(w *codegen.Workload, scheme string, cfg sim.Config) Key {
	var buf [canonBuf]byte
	return sha256.Sum256(appendRequest(buf[:0], w, scheme, cfg))
}

// VerifyKey is the content address of one verification request: the run
// address extended with the verification-mode discriminator, so a verdict
// can never be served for a run or for another verification mode.
func VerifyKey(w *codegen.Workload, scheme string, cfg sim.Config, dynamic bool, maxIters int64) Key {
	var buf [canonBuf]byte
	b := appendRequest(buf[:0], w, scheme, cfg)
	b = append(b, "extra\x00mode=verify dynamic="...)
	b = strconv.AppendBool(b, dynamic)
	b = append(b, " maxIters="...)
	b = strconv.AppendInt(b, maxIters, 10)
	return sha256.Sum256(append(b, 0))
}

// CompileKey is the content address of one Go-source compile request (the
// /compile endpoint and the dsgo CLI). The frontend is deterministic, so
// the source bytes fully determine the lowered workloads and diagnostics;
// the key therefore hashes the raw source (length-prefixed), the labeling
// filename (it appears in diagnostic positions), the canonical
// parameterized scheme names, and the machine configuration, under its own
// "compile" section so a compile address can never collide with a run or
// verify address for related content.
func CompileKey(filename string, src []byte, schemes []string, cfg sim.Config) Key {
	var buf [canonBuf]byte
	b := append(buf[:0], canonVersion+"\x00compile\x00file\x00"...)
	b = append(b, filename...)
	b = append(b, "\x00src["...)
	b = strconv.AppendInt(b, int64(len(src)), 10)
	b = append(b, "]\x00"...)
	b = append(b, src...)
	b = append(b, "\x00schemes["...)
	b = strconv.AppendInt(b, int64(len(schemes)), 10)
	b = append(b, "]\x00"...)
	for _, s := range schemes {
		b = append(append(b, s...), 0)
	}
	return sha256.Sum256(appendConfig(b, cfg))
}

func appendRequest(b []byte, w *codegen.Workload, scheme string, cfg sim.Config) []byte {
	b = append(b, canonVersion+"\x00workload\x00"...)
	b = append(b, w.Name...)
	b = append(b, "\x00depth="...)
	b = strconv.AppendInt(b, int64(w.Nest.Depth()), 10)
	b = append(b, 0)
	for _, ix := range w.Nest.Indexes {
		b = append(b, "index\x00"...)
		b = append(b, ix.Name...)
		b = append(b, 0)
		b = strconv.AppendInt(b, ix.Lo, 10)
		b = append(b, 0)
		b = strconv.AppendInt(b, ix.Hi, 10)
		b = append(b, 0)
	}
	b = appendBody(b, w.Nest.Body)
	b = append(b, "scheme\x00"...)
	b = append(append(b, scheme...), 0)
	return appendConfig(b, cfg)
}

func appendBody(b []byte, body []loop.Node) []byte {
	b = append(b, "body["...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "]\x00"...)
	for _, n := range body {
		switch v := n.(type) {
		case loop.StmtNode:
			b = appendStmt(b, v.S)
		case loop.IfNode:
			// Branch predicates are functions; the node name is their
			// canonical identity (builders name branches by condition).
			b = append(b, "if\x00"...)
			b = append(append(b, v.Name...), 0)
			b = appendBody(b, v.Then)
			b = append(b, "else\x00"...)
			b = appendBody(b, v.Else)
		default:
			b = append(b, "node?"...)
			b = append(append(b, reflect.TypeOf(n).String()...), 0)
		}
	}
	return b
}

func appendStmt(b []byte, s *deps.Stmt) []byte {
	b = append(b, "stmt\x00"...)
	b = append(b, s.Name...)
	b = append(b, "\x00cost="...)
	b = strconv.AppendInt(b, s.Cost, 10)
	b = append(b, 0)
	b = appendRefs(b, 'w', s.Writes)
	return appendRefs(b, 'r', s.Reads)
}

func appendRefs(b []byte, kind byte, refs []deps.Ref) []byte {
	b = append(b, kind, '[')
	b = strconv.AppendInt(b, int64(len(refs)), 10)
	b = append(b, "]\x00"...)
	for _, r := range refs {
		b = append(append(b, r.Array...), 0)
		for _, a := range r.Index {
			b = appendAffine(b, a)
		}
	}
	return b
}

func appendAffine(b []byte, a expr.Affine) []byte {
	b = append(b, "aff("...)
	b = strconv.AppendInt(b, a.Const, 10)
	for _, c := range a.Coef {
		b = strconv.AppendInt(append(b, ','), c, 10)
	}
	return append(b, ")\x00"...)
}

// appendConfig encodes every Config field explicitly: adding a field to
// sim.Config (or a knob to fault.Plan) without extending this encoding is
// caught by TestRequestKeyCoversConfig.
func appendConfig(b []byte, c sim.Config) []byte {
	b = append(b, "config\x00P="...)
	b = strconv.AppendInt(b, int64(c.Processors), 10)
	b = strconv.AppendInt(append(b, " bus="...), c.BusLatency, 10)
	b = strconv.AppendBool(append(b, " cov="...), c.BusCoverage)
	b = strconv.AppendInt(append(b, " mem="...), c.MemLatency, 10)
	b = strconv.AppendInt(append(b, " mod="...), int64(c.Modules), 10)
	b = strconv.AppendInt(append(b, " sync="...), c.SyncOpCost, 10)
	b = strconv.AppendInt(append(b, " sched="...), c.SchedOverhead, 10)
	b = strconv.AppendInt(append(b, " data="...), c.DataLatency, 10)
	b = strconv.AppendInt(append(b, " max="...), c.MaxCycles, 10)
	b = strconv.AppendInt(append(b, " disp="...), int64(c.Dispatch), 10)
	b = strconv.AppendInt(append(b, " chunk="...), c.ChunkSize, 10)
	b = append(b, 0)
	// The fault plan is appended only when armed: a disabled plan leaves
	// the encoding byte-identical to the pre-fault format, so clean runs
	// keep their established content addresses, while any armed plan gets
	// its own address and can never poison a clean entry.
	if c.FaultPlan.Enabled() {
		b = append(b, "fault\x00"...)
		b = append(append(b, c.FaultPlan.Canon()...), 0)
	}
	// Likewise the recovery section: a recovered run schedules differently
	// from a clean run, so an armed Recover must address its own entry —
	// while a disarmed one hashes identically to the pre-recovery format.
	if c.Recover.Enabled() {
		b = append(b, "recover\x00"...)
		b = append(append(b, c.Recover.Canon()...), 0)
	}
	return b
}
