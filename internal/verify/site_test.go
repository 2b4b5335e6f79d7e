package verify_test

import (
	"regexp"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
)

// The wait-site normalization of rendered tags as five regular
// expressions, applied in order: the specification the wait formats' site
// formats must match byte for byte.
var (
	siteIter = regexp.MustCompile(` i=-?\d+( noop)?$`)
	siteSeq  = regexp.MustCompile(` seq=\d+`)
	siteGE   = regexp.MustCompile(`>=-?\d+`)
	siteElem = regexp.MustCompile(`\[-?\d+(,-?\d+)*\]`)
	siteVer  = regexp.MustCompile(`\.v\d+(\.c\d+)?`)
)

func regexpSite(tag string) string {
	tag = siteIter.ReplaceAllString(tag, "")
	tag = siteSeq.ReplaceAllString(tag, " seq=*")
	tag = siteGE.ReplaceAllString(tag, ">=*")
	tag = siteElem.ReplaceAllString(tag, "[*]")
	tag = siteVer.ReplaceAllString(tag, ".v*")
	return tag
}

// TestSiteCorpus requires the site of every wait of the golden corpus,
// over each case's default window, to render as the regular expressions
// fold its tag, and waits whose sites render alike to share one site.
func TestSiteCorpus(t *testing.T) {
	seen := make(map[string]bool)
	var ops []sim.Op
	var buf []byte
	for _, g := range goldenCorpus(t) {
		for _, c := range g.cases {
			sp, err := codegen.ExtractSyncProgram(c.w, c.sch)
			if err != nil {
				t.Fatalf("%s/%s: extract: %v", g.name, c.name, err)
			}
			sites := make(map[string]sim.Label)
			for i := int64(1); i <= min(sp.Iters, 512); i++ {
				ops = sp.At(ops[:0], i)
				for _, op := range ops {
					if op.Kind != sim.OpWait {
						continue
					}
					site := sp.Machine.SiteOf(op.Tag)
					text := string(sp.Machine.AppendSite(buf[:0], site))
					if prev, ok := sites[text]; ok && prev != site {
						t.Errorf("%s/%s: two sites render %q", g.name, c.name, text)
					}
					sites[text] = site
					if buf = sp.AppendTag(buf[:0], op); !seen[string(buf)] {
						seen[string(buf)] = true
						if want := regexpSite(string(buf)); text != want {
							t.Errorf("site of %q renders %q, regular expressions give %q", buf, text, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d distinct wait tags", len(seen))
}

// FuzzSite requires the same of the waits of any two iterations of any
// golden case: the input picks a case (modulo the corpus size) and two
// iterations (modulo its iteration count), reaching past the window
// TestSiteCorpus walks. It is seeded with two inputs per golden group,
// each on another scheme of the group: one at the first iteration and at
// one far into the iteration space, one at two iterations in between.
func FuzzSite(f *testing.F) {
	var cases []goldenCase
	for g, grp := range goldenCorpus(f) {
		f.Add(uint16(len(cases)+g%len(grp.cases)), uint64(0), uint64(1<<62-1))
		f.Add(uint16(len(cases)+(g+7)%len(grp.cases)), uint64(g), uint64(3*g+1))
		cases = append(cases, grp.cases...)
	}
	progs := make([]*codegen.SyncProgram, len(cases))
	f.Fuzz(func(t *testing.T, c uint16, i, j uint64) {
		k := int(c) % len(cases)
		if progs[k] == nil {
			sp, err := codegen.ExtractSyncProgram(cases[k].w, cases[k].sch)
			if err != nil {
				t.Fatalf("%s: extract: %v", cases[k].name, err)
			}
			progs[k] = sp
		}
		sp := progs[k]
		m := sp.Machine
		sites := make(map[string]sim.Label)
		var ops []sim.Op
		var buf []byte
		for _, it := range []uint64{i, j} {
			ops = sp.At(ops[:0], 1+int64(it%uint64(sp.Iters)))
			for _, op := range ops {
				if op.Kind != sim.OpWait {
					continue
				}
				site := m.SiteOf(op.Tag)
				if m.SiteOf(site) != site {
					t.Errorf("%s: the site of %q is not its own site", cases[k].name, m.Render(op.Tag))
				}
				text := string(m.AppendSite(buf[:0], site))
				if tagText := string(m.AppendSite(buf[:0], op.Tag)); tagText != text {
					t.Errorf("%s: %q renders its site as %q, its site as %q", cases[k].name, m.Render(op.Tag), tagText, text)
				}
				if prev, ok := sites[text]; ok && prev != site {
					t.Errorf("%s: two sites render %q", cases[k].name, text)
				}
				sites[text] = site
				tag := string(sp.AppendTag(buf[:0], op))
				if want := regexpSite(tag); text != want {
					t.Errorf("%s: site of %q renders %q, regular expressions give %q", cases[k].name, tag, text, want)
				}
			}
		}
	})
}
