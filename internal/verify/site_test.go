package verify_test

import (
	"regexp"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/verify"
)

// The wait-site normalization as four regular expressions, applied in
// order: the specification the hand-written scanner must match byte for
// byte.
var (
	siteIter = regexp.MustCompile(` i=-?\d+( noop)?$`)
	siteGE   = regexp.MustCompile(`>=-?\d+`)
	siteElem = regexp.MustCompile(`\[-?\d+(,-?\d+)*\]`)
	siteVer  = regexp.MustCompile(`\.v\d+(\.c\d+)?`)
)

func regexpSite(tag string) string {
	tag = siteIter.ReplaceAllString(tag, "")
	tag = siteGE.ReplaceAllString(tag, ">=*")
	tag = siteElem.ReplaceAllString(tag, "[*]")
	tag = siteVer.ReplaceAllString(tag, ".v*")
	return tag
}

// corpusTags returns every distinct step tag of the golden corpus, over
// each case's default window.
func corpusTags(t testing.TB) []string {
	seen := make(map[string]bool)
	var tags []string
	var ops []codegen.SyncOp
	var buf []byte
	for _, g := range goldenCorpus(t) {
		for _, c := range g.cases {
			sp, err := codegen.ExtractSyncProgram(c.w, c.sch)
			if err != nil {
				t.Fatalf("%s/%s: extract: %v", g.name, c.name, err)
			}
			for i := int64(1); i <= min(sp.Iters, 512); i++ {
				ops = sp.At(ops[:0], i)
				for _, op := range ops {
					if buf = sp.AppendTag(buf[:0], op); !seen[string(buf)] {
						seen[string(buf)] = true
						tags = append(tags, string(buf))
					}
				}
			}
		}
	}
	return tags
}

// shape returns tag with every run of digits replaced by one 0.
func shape(tag string) string {
	isDigit := func(i int) bool { return '0' <= tag[i] && tag[i] <= '9' }
	b := make([]byte, 0, len(tag))
	for i := 0; i < len(tag); i++ {
		switch {
		case !isDigit(i):
			b = append(b, tag[i])
		case i == 0 || !isDigit(i-1):
			b = append(b, '0')
		}
	}
	return string(b)
}

// TestSiteCorpus requires the wait-site scanner to agree with the regular
// expressions on every distinct tag of the golden corpus.
func TestSiteCorpus(t *testing.T) {
	tags := corpusTags(t)
	for _, tag := range tags {
		if got, want := string(verify.AppendSite(nil, []byte(tag))), regexpSite(tag); got != want {
			t.Errorf("site(%q) = %q, regular expressions give %q", tag, got, want)
		}
	}
	t.Logf("%d distinct tags", len(tags))
}

// FuzzSite requires the wait-site scanner to agree with the regular
// expressions on every input. It is seeded with one golden-corpus tag of
// every shape (the tag with its digit runs collapsed; TestSiteCorpus
// checks every tag) and with the patterns' edge cases: seeding all of the
// corpus's tens of thousands of tags would spend a short fuzzing run on
// baseline coverage alone.
func FuzzSite(f *testing.F) {
	seen := make(map[string]bool)
	for _, tag := range corpusTags(f) {
		if sh := shape(tag); !seen[sh] {
			seen[sh] = true
			f.Add(tag)
		}
	}
	for _, tag := range []string{
		"", " i=", " i=-", " i=5", "x i=1 i=2", "x i=3 noop", "x i=-3 noop", "x i=3  noop", "x i=--3", "noop i=1noop",
		">=", ">=-", ">=-7", ">=>=5", "a>=1>=2", "[", "[]", "[1", "[1,]", "[1,2]", "[-1,-2]", "[1,[3]]", "[1][2]", "[1,-]",
		".v", ".v1", ".v1.c", ".v1.c2", ".v-1", ".v1.c-2", "..v1", "fe:fill A[3].v2.c0", "key:wait A[3,4]>=-2 i=9 noop",
		"\xff[1]\xfe>=2", "[1.v2]", "[>=1]",
	} {
		f.Add(tag)
	}
	f.Fuzz(func(t *testing.T, tag string) {
		if got, want := string(verify.AppendSite(nil, []byte(tag))), regexpSite(tag); got != want {
			t.Errorf("site(%q) = %q, regular expressions give %q", tag, got, want)
		}
	})
}
