// Go-source twin of twin_cond.do: an index comparison, a parity test and
// a compound assignment.
package loops

func dsl(a, b, c []int) {
	for i := 1; i <= 40; i++ {
		a[i+1] = i * 2
		if i <= 20 {
			b[i] = a[i] + 7
		} else {
			b[i] = a[i-1] - i
		}
		if i%2 == 0 {
			b[i] += 5
		}
		c[i] = b[i-1] * 3
	}
}
