package sim

import "strconv"

// Label is an op's tag kept as its parts: a format, up to three integer
// arguments and one string argument. Op builders stamp a label on every op
// of every iteration, but only a timeline or sync trace, a stall report or
// the static verifier ever reads one, so building a Label never allocates
// and the text is rendered only by String. Rendering replaces each "%d" in
// the format with the next integer argument and each "%s" with the string
// argument; a Label made by Text renders its text verbatim.
type Label struct {
	format string
	str    string
	args   [3]int64
	parts  bool
}

// Text returns a label whose rendering is exactly s.
func Text(s string) Label { return Label{format: s} }

// Tagf returns a label rendering format with its "%d" verbs replaced by
// args, in order. It takes at most three arguments.
func Tagf(format string, args ...int64) Label {
	l := Label{format: format, parts: true}
	if len(args) > len(l.args) {
		panic("sim: Tagf takes at most three arguments")
	}
	copy(l.args[:], args)
	return l
}

// TagSf is Tagf with a string argument for the format's "%s" verbs.
func TagSf(format, s string, args ...int64) Label {
	l := Tagf(format, args...)
	l.str = s
	return l
}

// String renders the label.
func (l Label) String() string {
	if !l.parts {
		return l.format
	}
	b := make([]byte, 0, len(l.format)+len(l.str)+32)
	k := 0
	f := l.format
	for i := 0; i < len(f); i++ {
		if f[i] == '%' && i+1 < len(f) {
			switch f[i+1] {
			case 'd':
				if k < len(l.args) {
					b = strconv.AppendInt(b, l.args[k], 10)
				}
				k++
				i++
				continue
			case 's':
				b = append(b, l.str...)
				i++
				continue
			}
		}
		b = append(b, f[i])
	}
	return string(b)
}
