package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/csrd-repro/datasync/internal/cache"
)

// CacheEntry is one result-cache entry in portable form: the hex content
// address, a kind tag naming the answer type ("run", "verify" or
// "compile"), and the owner's compact hit answer, json.Marshal of the
// answer decorated with cached: true and its key. The cluster layer moves
// entries between nodes this way (a kept forward and drain handoff). An
// importing node stores the body as it is and serves it
// indented, byte-identical to the owner's own hit answer.
type CacheEntry struct {
	Key  string
	Kind string
	Body []byte
}

// ImportCacheEntry stores a portable entry in the result cache under its
// content address, without decoding it: the key must parse, the kind be
// known, the body be JSON and be the key's hit answer, decorated with its
// own key and cached: true. The body is copied, so the entry holds none of
// the caller's buffer. The import changes cache provenance only: a later
// request for the key answers with the same response bytes the exporting
// node would have served.
func (s *Server) ImportCacheEntry(e CacheEntry) error {
	k, err := cache.ParseKey(e.Key)
	if err != nil {
		return err
	}
	if !json.Valid(e.Body) {
		return fmt.Errorf("service: import %s entry %s: body is not JSON", e.Kind, e.Key)
	}
	var mark [len(`"key":"","cached":true`) + 2*len(k)]byte
	m := hex.AppendEncode(append(mark[:0], `"key":"`...), k[:])
	if !bytes.Contains(e.Body, append(m, `","cached":true`...)) {
		return fmt.Errorf("service: import %s entry %s: body is not the key's hit answer", e.Kind, e.Key)
	}
	raw := append(make([]byte, 0, len(e.Body)), e.Body...)
	var v any
	switch e.Kind {
	case "run":
		v = &runResult{raw: raw}
	case "verify":
		v = &verifyResult{raw: raw}
	case "compile":
		v = &compileResult{raw: raw}
	default:
		return fmt.Errorf("service: import entry %s: unknown kind %q", e.Key, e.Kind)
	}
	s.cache.Put(k, v)
	return nil
}

// RangeCacheKeys calls f for every cached key, most recently used first.
// The cluster layer walks the cache this way and exports (ExportCacheEntry)
// only the entries it pushes, at push time.
func (s *Server) RangeCacheKeys(f func(cache.Key)) {
	s.cache.Range(func(k cache.Key, _ any) { f(k) })
}

// ExportCacheEntry returns the single entry stored under k in portable form
// (ok=false for absent keys). The owner keeps nothing for it: a computed
// entry's answer is marshalled at each export, and an imported entry ships
// the bytes it arrived with.
func (s *Server) ExportCacheEntry(k cache.Key) (CacheEntry, bool) {
	v, ok := s.cache.Peek(k)
	if !ok {
		return CacheEntry{}, false
	}
	e, ok := v.(interface {
		compact(cache.Key) ([]byte, error)
		kind() string
	})
	if !ok {
		return CacheEntry{}, false
	}
	body, err := e.compact(k)
	return CacheEntry{Key: k.String(), Kind: e.kind(), Body: body}, err == nil
}

// CacheHas reports whether the result cache holds the key, without
// touching recency or the hit/miss counters (replica-hit accounting).
func (s *Server) CacheHas(k cache.Key) bool {
	_, ok := s.cache.Peek(k)
	return ok
}
