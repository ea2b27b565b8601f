package pla

// Total returns the number of points consumed.
func (b *Builder) Total() int64 { return b.total }
