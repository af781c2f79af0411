package accessserver

// retryQuietly counts an attempt through a copy of the pointer, which a
// rule keyed to receiver spellings let pass.
func retryQuietly(b *Build) {
	x := b
	x.BuildRec.Attempts++
}

var _ = retryQuietly // reached, so only the rule under test trips
