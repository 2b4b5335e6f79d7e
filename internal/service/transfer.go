package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/csrd-repro/datasync/internal/cache"
)

// ImportCacheEntry stores an answer computed elsewhere in the result cache
// under k, without decoding it. The cluster layer moves entries between
// nodes this way only: an entry node keeps the owner's relayed hit answer
// for a key it forwarded. kind names the answer type ("run", "verify" or
// "compile") and body is the owner's compact hit answer, json.Marshal of
// the answer decorated with cached: true and its key. The kind must be
// known, and the body be JSON and be k's hit answer, decorated with k and
// cached: true. The body is copied, so the entry holds none of the
// caller's buffer. The import changes cache provenance only: a later
// request for k answers with the same response bytes the owner would have
// served.
func (s *Server) ImportCacheEntry(k cache.Key, kind string, body []byte) error {
	if !json.Valid(body) {
		return fmt.Errorf("service: import %s entry %s: body is not JSON", kind, k)
	}
	var mark [len(`"key":"","cached":true`) + 2*len(k)]byte
	m := hex.AppendEncode(append(mark[:0], `"key":"`...), k[:])
	if !bytes.Contains(body, append(m, `","cached":true`...)) {
		return fmt.Errorf("service: import %s entry %s: body is not the key's hit answer", kind, k)
	}
	raw := append(make([]byte, 0, len(body)), body...)
	var v any
	switch kind {
	case "run":
		v = &runResult{raw: raw}
	case "verify":
		v = &verifyResult{raw: raw}
	case "compile":
		v = &compileResult{raw: raw}
	default:
		return fmt.Errorf("service: import entry %s: unknown kind %q", k, kind)
	}
	s.cache.Put(k, v)
	return nil
}

// CacheHas reports whether the result cache holds the key, without
// touching recency or the hit/miss counters (replica-hit accounting).
func (s *Server) CacheHas(k cache.Key) bool {
	_, ok := s.cache.Peek(k)
	return ok
}
