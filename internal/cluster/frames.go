package cluster

// The /internal/handoff body: one batch of cache entries in length-prefixed
// frames.
//
//	body  = magic field(from) field(reason) { field(key) field(kind) field(body) }
//	magic = "dsho" 0x01 (the format's name and version)
//	field = uvarint(length) bytes
//
// Entries run to the end of the body. An entry's body is the owner's
// compact hit answer (service.CacheEntry), carried as it is: no JSON
// framing around it is escaped, validated or compacted on either side.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/csrd-repro/datasync/internal/service"
)

const (
	handoffMagic       = "dsho\x01"
	handoffContentType = "application/x-dsserve-handoff"
)

// HandoffRequest is one batch of cache entries moving between peers; Reason
// names why they move ("drain").
type HandoffRequest struct {
	From    string
	Reason  string
	Entries []service.CacheEntry
}

// frames encodes the batch as an /internal/handoff body, in a buffer sized
// from the summed field lengths.
func (h *HandoffRequest) frames() []byte {
	size := len(handoffMagic) + fieldLen(len(h.From)) + fieldLen(len(h.Reason))
	for _, e := range h.Entries {
		size += fieldLen(len(e.Key)) + fieldLen(len(e.Kind)) + fieldLen(len(e.Body))
	}
	b := append(make([]byte, 0, size), handoffMagic...)
	b = appendField(appendField(b, h.From), h.Reason)
	for _, e := range h.Entries {
		b = appendField(appendField(appendField(b, e.Key), e.Kind), e.Body)
	}
	return b
}

func appendField[S string | []byte](b []byte, f S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

// fieldLen is the encoded size of a field of n bytes.
func fieldLen(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n)) + n
}

// parseFrames decodes an /internal/handoff body. A wrong magic or version,
// a truncated field or a length past the end of the body is an error. The
// entries' bodies alias b, each capped at its own length.
func parseFrames(b []byte) (HandoffRequest, error) {
	var h HandoffRequest
	rest, ok := bytes.CutPrefix(b, []byte(handoffMagic))
	if !ok {
		return h, errors.New("not a handoff frame body (wrong magic or version)")
	}
	field := func() ([]byte, error) {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, errors.New("truncated or overlong field length")
		}
		rest = rest[k:]
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("field length %d exceeds the %d bytes left", n, len(rest))
		}
		f := rest[:n:n]
		rest = rest[n:]
		return f, nil
	}
	var f [3][]byte
	for i := range 2 {
		var err error
		if f[i], err = field(); err != nil {
			return h, err
		}
	}
	h.From, h.Reason = string(f[0]), string(f[1])
	for len(rest) > 0 {
		for i := range f {
			var err error
			if f[i], err = field(); err != nil {
				return h, fmt.Errorf("entry %d: %w", len(h.Entries), err)
			}
		}
		h.Entries = append(h.Entries, service.CacheEntry{Key: string(f[0]), Kind: string(f[1]), Body: f[2]})
	}
	return h, nil
}
