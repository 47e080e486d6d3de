// Package csvrdf imports comma-separated files as RDF, the way the paper's
// 50-states dataset arrived (§6.1: "a collection of information about 50
// states provided as a comma separated file"). Each row becomes a resource;
// each column becomes a property holding a plain string literal — no
// labels, no value types — faithfully reproducing the "as given" behaviour
// of Figure 7 (raw identifiers, everything stringly typed) until schema
// annotations are added.
package csvrdf

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"magnet/internal/rdf"
)

// FromCSV reads CSV from r into g. The first row must be a header; the
// column named keyColumn (or the first column when keyColumn is empty)
// names each row's resource under ns. Property IRIs are ns + "prop/" +
// header. It returns the created row resources in input order.
func FromCSV(g *rdf.Builder, r io.Reader, ns, keyColumn string) ([]rdf.IRI, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvrdf: reading header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("csvrdf: empty header")
	}
	keyIdx := 0
	if keyColumn != "" {
		keyIdx = -1
		for i, h := range header {
			if h == keyColumn {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("csvrdf: key column %q not in header %v", keyColumn, header)
		}
	}
	props := make([]rdf.IRI, len(header))
	for i, h := range header {
		props[i] = Prop(ns, h)
	}

	var rows []rdf.IRI
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvrdf: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("csvrdf: line %d: %d fields, header has %d", line, len(rec), len(header))
		}
		key := strings.TrimSpace(rec[keyIdx])
		if key == "" {
			return nil, fmt.Errorf("csvrdf: line %d: empty key", line)
		}
		row := Row(ns, key)
		rows = append(rows, row)
		for i, v := range rec {
			v = strings.TrimSpace(v)
			if v == "" {
				continue
			}
			g.Add(row, props[i], rdf.NewString(v))
		}
	}
	return rows, nil
}

// Row returns the resource IRI for a row key under ns.
func Row(ns, key string) rdf.IRI {
	return rdf.IRI(ns + "row/" + slug(key))
}

// Prop returns the property IRI for a CSV column under ns.
func Prop(ns, header string) rdf.IRI {
	return rdf.IRI(ns + "prop/" + slug(header))
}

func slug(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
	}
	return b.String()
}
