// Package unusedignore holds one //vqelint:ignore directive that
// suppresses a finding and one that suppresses nothing.
package unusedignore

func same(a, b float64) bool {
	//vqelint:ignore floatcompare exact equality is what this fixture suppresses
	return a == b
}

func sum(a, b int) int {
	//vqelint:ignore lockdiscipline no lock is taken here, so this directive is stale
	return a + b
}
