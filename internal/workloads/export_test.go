package workloads

// ResetGoldenMemo empties the golden-reference memo.
func ResetGoldenMemo() {
	goldenMemo.Lock()
	goldenMemo.lru = nil
	goldenMemo.Unlock()
}

// GoldenMemoLen reports how many golden references the memo holds.
func GoldenMemoLen() int {
	goldenMemo.Lock()
	defer goldenMemo.Unlock()
	return len(goldenMemo.lru)
}
