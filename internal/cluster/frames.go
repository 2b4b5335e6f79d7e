package cluster

// The peer-internal binary body.
//
// The /internal/sweep answer is the points of one sweep sub-grid, in the
// order of the dispatched sub-request's Points:
//
//	points = "dssp" 0x01 uvarint(count) { point }
//	point  = varint(x) varint(p) varint(chunk) varint(g) varint(busLatency)
//	         field(scheme) bool(cached) varint(cycles) varint(syncTraffic)
//	         varint(syncOps) float(speedup) field(error)
//
// The magic names the format and its version. Terms:
//
//	field  = uvarint(length) bytes
//	varint = zig-zag varint (encoding/binary)
//	bool   = 0x00 | 0x01
//	float  = the 8 little-endian bytes of the IEEE 754 float64 bits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/csrd-repro/datasync/internal/service"
)

const (
	pointsMagic       = "dssp\x01"
	pointsContentType = "application/x-dsserve-points"
)

func appendField(b []byte, f string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

// frameReader reads the terms of the frame grammar off the front of a
// body. Every read checks the bytes left: the first truncated, overlong or
// invalid term sets err, and every later read returns zero.
type frameReader struct {
	rest []byte
	err  error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.rest = nil
}

func (r *frameReader) uvarint() uint64 {
	n, k := binary.Uvarint(r.rest)
	if k <= 0 {
		r.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	r.rest = r.rest[k:]
	return n
}

func (r *frameReader) varint() int64 {
	n, k := binary.Varint(r.rest)
	if k <= 0 {
		r.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	r.rest = r.rest[k:]
	return n
}

// field returns the next field's bytes, aliasing the body and capped at
// their own length.
func (r *frameReader) field() []byte {
	n := r.uvarint()
	if n > uint64(len(r.rest)) {
		r.fail(fmt.Errorf("field length %d exceeds the %d bytes left", n, len(r.rest)))
		return nil
	}
	f := r.rest[:n:n]
	r.rest = r.rest[n:]
	return f
}

func (r *frameReader) bool() bool {
	if len(r.rest) == 0 || r.rest[0] > 1 {
		r.fail(errors.New("truncated or invalid bool"))
		return false
	}
	v := r.rest[0] == 1
	r.rest = r.rest[1:]
	return v
}

func (r *frameReader) float() float64 {
	if len(r.rest) < 8 {
		r.fail(errors.New("truncated float"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.rest))
	r.rest = r.rest[8:]
	return v
}

// pointFrames encodes pts as an /internal/sweep answer, in a buffer sized
// for about 64 bytes a point (a sweep point takes 30-50).
func pointFrames(pts []service.SweepPoint) []byte {
	b := make([]byte, 0, len(pointsMagic)+binary.MaxVarintLen64+64*len(pts))
	b = binary.AppendUvarint(append(b, pointsMagic...), uint64(len(pts)))
	for _, p := range pts {
		for _, v := range [...]int64{int64(p.X), int64(p.P), p.Chunk, p.G, p.BusLatency} {
			b = binary.AppendVarint(b, v)
		}
		b = appendField(b, p.Scheme)
		if p.Cached {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for _, v := range [...]int64{p.Cycles, p.SyncTraffic, p.SyncOps} {
			b = binary.AppendVarint(b, v)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Speedup))
		b = appendField(b, p.Error)
	}
	return b
}

// minPointLen is the fewest bytes a point takes: eight one-byte varints,
// two empty fields, the bool and the float.
const minPointLen = 8 + 2 + 1 + 8

// parsePoints decodes an /internal/sweep answer of want points. A wrong
// magic or version, a truncated or overlong term, bytes after the last
// point, or a count other than want is an error.
func parsePoints(b []byte, want int) ([]service.SweepPoint, error) {
	rest, ok := bytes.CutPrefix(b, []byte(pointsMagic))
	if !ok {
		return nil, errors.New("not a point frame body (wrong magic or version)")
	}
	r := frameReader{rest: rest}
	count := r.uvarint()
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("point count: %w", r.err)
	case count != uint64(want):
		return nil, fmt.Errorf("%d points for a %d-point sub-grid", count, want)
	case count > uint64(len(r.rest)/minPointLen):
		return nil, fmt.Errorf("%d points cannot fit in %d bytes", count, len(r.rest))
	}
	pts := make([]service.SweepPoint, count)
	for i := range pts {
		p := &pts[i]
		p.X, p.P = int(r.varint()), int(r.varint())
		p.Chunk, p.G, p.BusLatency = r.varint(), r.varint(), r.varint()
		p.Scheme = string(r.field())
		p.Cached = r.bool()
		p.Cycles, p.SyncTraffic, p.SyncOps = r.varint(), r.varint(), r.varint()
		p.Speedup = r.float()
		p.Error = string(r.field())
		if r.err != nil {
			return nil, fmt.Errorf("point %d: %w", i, r.err)
		}
	}
	if len(r.rest) > 0 {
		return nil, fmt.Errorf("%d bytes after the last point", len(r.rest))
	}
	return pts, nil
}
