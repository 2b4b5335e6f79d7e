package service

import (
	"encoding/json"
	"fmt"

	"github.com/csrd-repro/datasync/internal/cache"
)

// CacheEntry is one result-cache entry in portable form: the hex content
// address, a kind tag naming the stored value's type, and the value's JSON
// encoding. Because every cached value is itself served to clients as JSON,
// this round-trip is exact for everything a response can contain — an
// imported entry re-serves byte-identical response bodies (only the
// per-request Cached/Key decoration differs, and that is recomputed per
// request on both sides). The cluster layer moves entries between nodes
// this way (replication, anti-entropy and drain handoff).
type CacheEntry struct {
	Key  string          `json:"key"`
	Kind string          `json:"kind"` // "run" | "verify" | "compile"
	Body json.RawMessage `json:"body"`
}

// encodeCacheValue renders one stored cache value portably. ok=false means
// the value is not a transferable kind (nothing stores such values today;
// the guard keeps a future cache user from being mis-shipped).
func encodeCacheValue(k cache.Key, v any) (CacheEntry, bool) {
	var kind string
	var payload any
	switch t := v.(type) {
	case *runResult:
		kind, payload = "run", t.resp
	case *verifyResult:
		kind, payload = "verify", t.resp
	case *compileResult:
		kind, payload = "compile", t.out
	default:
		return CacheEntry{}, false
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return CacheEntry{}, false
	}
	return CacheEntry{Key: k.String(), Kind: kind, Body: body}, true
}

// ImportCacheEntry decodes a portable entry and stores it in the result
// cache under its content address. The import changes cache provenance
// only: a later request for the key answers Cached:true with the same
// response bytes the exporting node would have served.
func (s *Server) ImportCacheEntry(e CacheEntry) error {
	k, err := cache.ParseKey(e.Key)
	if err != nil {
		return err
	}
	var v any
	switch e.Kind {
	case "run":
		var resp RunResponse
		if err := json.Unmarshal(e.Body, &resp); err != nil {
			return fmt.Errorf("service: import run entry %s: %w", e.Key, err)
		}
		v = &runResult{resp: resp}
	case "verify":
		var resp VerifyResponse
		if err := json.Unmarshal(e.Body, &resp); err != nil {
			return fmt.Errorf("service: import verify entry %s: %w", e.Key, err)
		}
		// Strip any per-request decoration the exporter carried; it is
		// recomputed per request.
		resp.Cached, resp.Key = false, ""
		v = &verifyResult{resp: resp}
	case "compile":
		var out CompileOutcome
		if err := json.Unmarshal(e.Body, &out); err != nil {
			return fmt.Errorf("service: import compile entry %s: %w", e.Key, err)
		}
		v = &compileResult{out: out}
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

// ExportCacheEntry encodes the single entry stored under k (ok=false for
// absent keys and non-transferable values).
func (s *Server) ExportCacheEntry(k cache.Key) (CacheEntry, bool) {
	v, ok := s.cache.Peek(k)
	if !ok {
		return CacheEntry{}, false
	}
	return encodeCacheValue(k, v)
}

// CacheHas reports whether the result cache holds the key, without
// touching recency or the hit/miss counters (replica-hit accounting).
func (s *Server) CacheHas(k cache.Key) bool {
	_, ok := s.cache.Peek(k)
	return ok
}

// notifyFill reports a freshly computed (not hit, not errored) cache fill
// to the OnCacheFill hook.
func (s *Server) notifyFill(k cache.Key, hit bool, err error) {
	if err == nil && !hit && s.opts.OnCacheFill != nil {
		s.opts.OnCacheFill(k)
	}
}
