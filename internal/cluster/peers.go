package cluster

import (
	"fmt"
	"strings"
)

// ParsePeers parses the -peers flag: a comma-separated list of "id=addr"
// entries, e.g.
//
//	a=http://10.0.0.1:8077,b=http://10.0.0.2:8077
//
// An empty spec yields no peers (a cluster of one). Every node in a
// cluster must be started with the same membership — ring versions (and
// thus ownership) agree exactly when the parsed sets agree.
func ParsePeers(spec string) ([]Member, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Member
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: peer entry %q is not id=addr", entry)
		}
		if strings.Contains(addr, "*") {
			// The *weight suffix of earlier releases: refuse it rather than
			// take "addr*2" for an address no peer will ever answer at.
			return nil, fmt.Errorf("cluster: peer entry %q: member weights are not supported", entry)
		}
		out = append(out, Member{ID: id, Addr: addr})
	}
	return out, nil
}
