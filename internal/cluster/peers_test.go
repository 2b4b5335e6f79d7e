package cluster

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers(" a=http://10.0.0.1:8077, b=http://10.0.0.2:8077 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{ID: "a", Addr: "http://10.0.0.1:8077"},
		{ID: "b", Addr: "http://10.0.0.2:8077"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParsePeers = %+v, want %+v", got, want)
	}

	if got, err := ParsePeers("  "); err != nil || got != nil {
		t.Errorf("empty spec: %v, %v — want nil, nil", got, err)
	}

	for _, bad := range []string{"nodots", "=http://x", "a=", "a=http://x*zero", "a=http://x*0", "a=http://x*2"} {
		_, err := ParsePeers(bad)
		if err == nil {
			t.Errorf("ParsePeers(%q) accepted invalid input", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("ParsePeers(%q) error %q does not name the entry", bad, err)
		}
	}
}
