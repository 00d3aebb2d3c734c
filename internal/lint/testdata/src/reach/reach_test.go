package reach

import "testing"

func TestOnlyTests(t *testing.T) {
	OnlyTests()
	_ = (&Square{Side: 1}).Diagonal()
	_ = Start(RunOptions{Workers: 2})
}
