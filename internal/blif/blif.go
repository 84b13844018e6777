// Package blif reads and writes combinational networks in the Berkeley
// Logic Interchange Format used by SIS and the MCNC benchmark suites. Only
// the combinational subset is supported (.model/.inputs/.outputs/.names,
// with constant and don't-care-free single-output tables); latches and
// subcircuits are rejected with a clear error.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/cube"
	"repro/internal/network"
)

// Parse reads a single .model from r.
func Parse(r io.Reader) (*network.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	var cont strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cont.WriteString(strings.TrimSuffix(line, "\\"))
			cont.WriteString(" ")
			continue
		}
		cont.WriteString(line)
		lines = append(lines, cont.String())
		cont.Reset()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	nw := network.New("blif")
	type rawNode struct {
		out    string
		ins    []string
		rows   []string
		onset  bool // value column is 1
		hasVal bool
	}
	var nodes []*rawNode
	var cur *rawNode
	flush := func() { cur = nil }

	validName := func(s string) error {
		if s == "" || strings.HasPrefix(s, ".") || strings.ContainsAny(s, "\\#") {
			return fmt.Errorf("blif: invalid signal name %q", s)
		}
		return nil
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				if err := validName(fields[1]); err != nil {
					return nil, err
				}
				nw.Name = fields[1]
			}
			flush()
		case ".inputs":
			for _, f := range fields[1:] {
				if err := validName(f); err != nil {
					return nil, err
				}
				if nw.IsPI(f) {
					return nil, fmt.Errorf("blif: duplicate input %q", f)
				}
				nw.AddPI(f)
			}
			flush()
		case ".outputs":
			for _, f := range fields[1:] {
				if err := validName(f); err != nil {
					return nil, err
				}
				// Pre-check: AddPO panics on duplicates (an invariant
				// violation for programmatic construction), but malformed
				// input must come back as an error.
				if nw.IsPO(f) {
					return nil, fmt.Errorf("blif: duplicate output %q", f)
				}
				nw.AddPO(f)
			}
			flush()
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: malformed .names: %q", line)
			}
			for _, f := range fields[1:] {
				if err := validName(f); err != nil {
					return nil, err
				}
			}
			cur = &rawNode{out: fields[len(fields)-1], ins: fields[1 : len(fields)-1]}
			nodes = append(nodes, cur)
		case ".end":
			flush()
		case ".latch", ".subckt", ".gate", ".mlatch", ".exdc":
			return nil, fmt.Errorf("blif: unsupported construct %q", fields[0])
		default:
			if cur == nil {
				return nil, fmt.Errorf("blif: table row outside .names: %q", line)
			}
			switch len(fields) {
			case 1:
				if len(cur.ins) != 0 {
					return nil, fmt.Errorf("blif: row %q missing output column", line)
				}
				cur.rows = append(cur.rows, "")
				cur.onset = fields[0] == "1"
				cur.hasVal = true
			case 2:
				on := fields[1] == "1"
				if cur.hasVal && on != cur.onset {
					return nil, fmt.Errorf("blif: mixed on/off rows for %q", cur.out)
				}
				cur.onset, cur.hasVal = on, true
				cur.rows = append(cur.rows, fields[0])
			default:
				return nil, fmt.Errorf("blif: malformed row %q", line)
			}
		}
	}

	for _, rn := range nodes {
		if nw.IsPI(rn.out) || nw.Node(rn.out) != nil {
			return nil, fmt.Errorf("blif: signal %q defined twice", rn.out)
		}
		seen := make(map[string]bool, len(rn.ins))
		for _, in := range rn.ins {
			if seen[in] {
				return nil, fmt.Errorf("blif: node %q repeats input %q", rn.out, in)
			}
			if in == rn.out {
				return nil, fmt.Errorf("blif: node %q feeds itself", rn.out)
			}
			seen[in] = true
		}
		n := len(rn.ins)
		cov := cube.NewCover(n)
		for _, row := range rn.rows {
			if len(row) != n {
				return nil, fmt.Errorf("blif: row width %d != %d inputs for %q", len(row), n, rn.out)
			}
			c := cube.New(n)
			for i, ch := range row {
				switch ch {
				case '1':
					c.Set(i, cube.Pos)
				case '0':
					c.Set(i, cube.Neg)
				case '-':
				default:
					return nil, fmt.Errorf("blif: bad character %q in row for %q", ch, rn.out)
				}
			}
			cov.Add(c)
		}
		if rn.hasVal && !rn.onset {
			// Off-set specification: complement it.
			cov = cov.Complement()
		}
		if len(rn.rows) == 0 {
			// ".names x" with no rows = constant 0.
			cov = cube.NewCover(n)
		}
		nw.AddNode(rn.out, rn.ins, cov)
	}
	if err := nw.Check(); err != nil {
		return nil, fmt.Errorf("blif: inconsistent network: %w", err)
	}
	return nw, nil
}

// ParseString parses BLIF source text.
func ParseString(s string) (*network.Network, error) {
	return Parse(strings.NewReader(s))
}

// Write emits the network as BLIF.
func Write(w io.Writer, nw *network.Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(nw.PIs(), " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(nw.POs(), " "))
	for _, name := range nw.TopoOrder() {
		n := nw.Node(name)
		fmt.Fprintf(bw, ".names %s %s\n", strings.Join(n.Fanins, " "), n.Name)
		if n.Cover.NumCubes() == 1 && n.Cover.Cubes[0].IsUniverse() {
			fmt.Fprintln(bw, "1")
			continue
		}
		for _, c := range n.Cover.Cubes {
			row := make([]byte, len(n.Fanins))
			for i := range row {
				switch c.Get(i) {
				case cube.Pos:
					row[i] = '1'
				case cube.Neg:
					row[i] = '0'
				default:
					row[i] = '-'
				}
			}
			if len(row) == 0 {
				fmt.Fprintln(bw, "1")
			} else {
				fmt.Fprintf(bw, "%s 1\n", row)
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ToString renders the network as BLIF text.
func ToString(nw *network.Network) string {
	var b strings.Builder
	_ = Write(&b, nw)
	return b.String()
}
