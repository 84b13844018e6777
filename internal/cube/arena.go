package cube

// Arena bump-allocates the words of scratch cubes for a recursion that
// builds them frame by frame and drops each frame's cubes on return: Mark
// records the top, Release frees everything built after a mark. A cube
// built here is valid until its words are released, so it must not
// outlive the frame that built it or be handed to code that keeps it.
// Every constructor copies its operands first, so no input cube is ever
// written. The words grow only by appending to the arena's own slice, so
// a warmed arena allocates nothing; a regrowth leaves earlier cubes on
// the old backing, where they stay valid. The zero value is ready to use.
// Not safe for concurrent use.
type Arena struct {
	words []uint64
}

// Mark returns the arena's current top, for a later Release.
func (a *Arena) Mark() int { return len(a.words) }

// Release frees every cube built since Mark returned m.
func (a *Arena) Release(m int) { a.words = a.words[:m] }

// Clone returns an arena copy of c.
//
//bdslint:hotpath
func (a *Arena) Clone(c Cube) Cube {
	top := len(a.words)
	a.words = append(a.words, c.w...)
	end := len(a.words)
	return Cube{w: a.words[top:end:end], n: c.n}
}

// With returns an arena copy of c with variable v set to phase p.
//
//bdslint:hotpath
func (a *Arena) With(c Cube, v int, p Phase) Cube {
	d := a.Clone(c)
	d.Set(v, p)
	return d
}

// FreeLitsOf returns an arena copy of c.FreeLitsOf(d).
//
//bdslint:hotpath
func (a *Arena) FreeLitsOf(c, d Cube) Cube {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	out := a.Clone(c)
	for i := range out.w {
		out.w[i] |= litSlots(d.w[i])
	}
	return out
}

// And returns an arena copy of c.And(d).
//
//bdslint:hotpath
func (a *Arena) And(c, d Cube) Cube {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	out := a.Clone(c)
	for i := range out.w {
		out.w[i] &= d.w[i]
	}
	return out
}
