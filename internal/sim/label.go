package sim

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Label is an op's tag kept as its parts: a registered format, up to three
// integer arguments and one string argument, named by its index in the
// name table of the machine the op runs on. Op builders stamp a label on
// every op of every iteration, but only a timeline or sync trace, a stall
// report or the static verifier ever reads one, so building a Label never
// allocates, it holds no pointer, and the text is rendered only by
// Machine.Render. Rendering replaces each "%d" in the format with the next
// integer argument and each "%s" with the string argument. The zero Label
// renders "".
type Label struct {
	args [3]int64
	str  StrID
	fmt  Format
}

// Format names a label format registered with RegisterFormat.
type Format uint16

// verbatim is the format "%s": a label of it renders its string argument
// verbatim.
const verbatim Format = 1

var (
	// formats is the format registry, by Format. Format 0 is the empty
	// format of the zero Label.
	formats = []string{"", "%s"}
	// sites holds the site formats of the formats that have one.
	sites = map[Format]string{}
	// formatsSealed is set by the first New: from then on the registry
	// is read without a lock and must not change.
	formatsSealed atomic.Bool
)

// RegisterFormat registers a label format and returns its name. Call it
// from a package-level variable declaration only: the registry is filled
// at package initialization and read by every machine without a lock, so
// registering once a machine exists panics.
func RegisterFormat(format string) Format {
	if formatsSealed.Load() {
		panic("sim: label formats must be registered at package initialization")
	}
	if len(formats) > math.MaxUint16 {
		panic("sim: too many label formats")
	}
	formats = append(formats, format)
	return Format(len(formats) - 1)
}

// RegisterSiteFormat registers format as RegisterFormat does, with site as
// the format of its labels' sites: what stays the same from one iteration
// to the next. The "%d" verbs of site take the label's first integer
// arguments and its "%s" the site of the string argument (SiteNamer), so
// "wait_PC(%d,%d) i=%d" has the site "wait_PC(%d,%d)".
func RegisterSiteFormat(format, site string) Format {
	f := RegisterFormat(format)
	sites[f] = site
	return f
}

// StrID names a string of a machine's name table (Machine.AddNames,
// Machine.Text).
type StrID int32

// Tagf returns a label rendering format f with its "%d" verbs replaced by
// args, in order. It takes at most three arguments.
func Tagf(f Format, args ...int64) Label {
	l := Label{fmt: f}
	if len(args) > len(l.args) {
		panic("sim: Tagf takes at most three arguments")
	}
	copy(l.args[:], args)
	return l
}

// TagSf is Tagf with string s of the machine's name table for the format's
// "%s" verbs.
func TagSf(f Format, s StrID, args ...int64) Label {
	l := Tagf(f, args...)
	l.str = s
	return l
}

// Text returns a label rendering string s of the machine's name table
// verbatim.
func Text(s StrID) Label { return Label{fmt: verbatim, str: s} }

// Text registers s in the machine's name table and returns a label
// rendering it verbatim, for hand-built programs.
func (m *Machine) Text(s string) Label {
	m.mustNotHaveRun("strings")
	return Text(StrID(m.strs.add(1, nameDecl{text: s})))
}

// AddNames registers a block of n strings, the i-th rendered as
// names.Name(i) when a label asks for it, and returns the name of the
// first; the others follow consecutively.
func (m *Machine) AddNames(n int, names Namer) StrID {
	m.mustNotHaveRun("strings")
	return StrID(m.strs.add(n, nameDecl{names: names}))
}

// Render renders label l, taking its string argument from the machine's
// name table.
func (m *Machine) Render(l Label) string {
	return string(m.AppendRender(make([]byte, 0, 48), l))
}

// AppendRender appends the text of label l to dst and returns the
// extended buffer: Render without allocating when dst has room.
func (m *Machine) AppendRender(dst []byte, l Label) []byte {
	f := formats[l.fmt]
	var s string
	if strings.Contains(f, "%s") {
		s = m.strs.name(int32(l.str))
	}
	return appendRender(dst, f, s, l.args[:])
}

// SiteOf returns the label that stands for l's site, equal for every
// label placed at it: l with only the integer arguments its site format
// renders and with the first string of its string argument's site. A
// label of a format without a site format is its own site.
func (m *Machine) SiteOf(l Label) Label {
	site, ok := sites[l.fmt]
	if !ok {
		return l
	}
	s := Label{fmt: l.fmt, str: l.str}
	copy(s.args[:], l.args[:strings.Count(site, "%d")])
	d, i := m.strs.decl(int32(l.str))
	if sn, ok := d.names.(SiteNamer); ok {
		s.str = StrID(d.first) + StrID(sn.Site(i))
	}
	return s
}

// AppendSite appends the text of label l's site to dst.
func (m *Machine) AppendSite(dst []byte, l Label) []byte {
	site, ok := sites[l.fmt]
	if !ok {
		return m.AppendRender(dst, l)
	}
	d, i := m.strs.decl(int32(l.str))
	if sn, ok := d.names.(SiteNamer); ok {
		return appendRender(dst, site, sn.SiteName(i), l.args[:])
	}
	return appendRender(dst, site, m.strs.name(int32(l.str)), l.args[:])
}

// render expands format: each "%d" takes the next of args (nothing once
// they run out) and each "%s" takes s.
func render(format, s string, args []int64) string {
	return string(appendRender(make([]byte, 0, len(format)+len(s)+32), format, s, args))
}

// appendRender appends the expansion of format to b.
func appendRender(b []byte, format, s string, args []int64) []byte {
	k := 0
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) {
			switch format[i+1] {
			case 'd':
				if k < len(args) {
					b = strconv.AppendInt(b, args[k], 10)
				}
				k++
				i++
				continue
			case 's':
				b = append(b, s...)
				i++
				continue
			}
		}
		b = append(b, format[i])
	}
	return b
}

// Namer names the members of a block of variables or strings declared
// together: Name(i) renders the block's i-th.
type Namer interface {
	Name(i int) string
}

// SiteNamer is a Namer whose members fall into sites, as an array's
// elements fall into their array: Site(i) is the first member of member
// i's site and SiteName(i) names that site.
type SiteNamer interface {
	Namer
	Site(i int) int
	SiteName(i int) string
}

// IndexedNames names the i-th member of a block by the format with each
// "%d" replaced by i, e.g. IndexedNames("PC[%d]").
type IndexedNames string

// Name implements Namer.
func (f IndexedNames) Name(i int) string { return render(string(f), "", []int64{int64(i)}) }

// nameTable names a run's variables or strings by blocks of consecutive
// ids, one declaration per block, so a block of any size costs one entry
// and no name is rendered until asked.
type nameTable struct {
	decls []nameDecl
	n     int32 // ids declared
}

// nameDecl names the ids from first up to the next declaration's first:
// text names a single id, names a block.
type nameDecl struct {
	first int32
	text  string
	names Namer
}

// add declares the next n ids, named by d, and returns the first.
func (t *nameTable) add(n int, d nameDecl) int32 {
	d.first = t.n
	t.decls = append(t.decls, d)
	t.n += int32(n)
	return d.first
}

// decl returns the declaration naming id, the last starting at or before
// it, and id's index in its block.
func (t *nameTable) decl(id int32) (nameDecl, int) {
	k := sort.Search(len(t.decls), func(k int) bool { return t.decls[k].first > id }) - 1
	if k < 0 {
		return nameDecl{}, 0
	}
	return t.decls[k], int(id - t.decls[k].first)
}

// name renders the name of id.
func (t *nameTable) name(id int32) string {
	d, i := t.decl(id)
	if d.names != nil {
		return d.names.Name(i)
	}
	return d.text
}
