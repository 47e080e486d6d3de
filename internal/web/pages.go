package web

import "strconv"

// The page writers append each page's HTML to a caller's buffer. Their
// output is byte-identical to what html/template produced for the same
// layout (pages_oracle_test.go keeps those templates as the oracle), so
// each substitution escapes as html/template's contextual escaper would
// there: appendHTML for text, <title> and quoted attribute values,
// appendQuery for URL query values, and plain decimal for ints.

const baseCSS = `<style>
body{font-family:system-ui,sans-serif;margin:0;display:flex;min-height:100vh}
nav{width:22rem;background:#f4f1ea;padding:1rem;border-right:1px solid #ddd;flex-shrink:0}
main{padding:1rem 2rem;flex-grow:1}
h1{font-size:1.2rem;margin:.2rem 0 .8rem}
h2{font-size:.95rem;border-bottom:1px solid #c8bfa8;padding-bottom:.2rem;margin:1rem 0 .4rem}
h3{font-size:.85rem;margin:.6rem 0 .2rem;color:#555}
ul{list-style:none;padding-left:.4rem;margin:.2rem 0}
li{margin:.15rem 0;font-size:.9rem}
.constraint{background:#fff;border:1px solid #ccc;border-radius:4px;padding:.15rem .4rem;display:inline-block;margin:.1rem}
.constraint a{text-decoration:none;color:#a33;margin-left:.3rem}
.detail{color:#888;font-size:.8rem}
.bar{background:#7a9;display:inline-block;height:.7rem;vertical-align:middle}
.modes a{font-size:.75rem;color:#777;margin-left:.25rem;text-decoration:none}
form.search input[type=text]{width:12rem}
table{border-collapse:collapse}td{padding:.1rem .5rem;font-size:.9rem;vertical-align:top}
a{color:#236}
</style>`

const searchBar = `<form class="search" id="search" action="/search" method="get">
<input type="text" name="q" placeholder="keywords"><button>Search</button></form>
<p><a href="/home">all items</a> · <a href="/back">⟲ back</a> · <a href="/overview">overview</a></p>`

// appendPage writes the Figure 1 layout: constraints, results, navigation
// pane.
//
//magnet:hot
func (v *collectionView) appendPage(b []byte) []byte {
	b = append(b, "<!doctype html><title>"...)
	b = appendHTML(b, v.Title)
	b = append(b, "</title>"...)
	b = append(b, baseCSS...)
	b = append(b, "\n<nav>\n<h1>"...)
	b = appendHTML(b, v.Title)
	b = append(b, "</h1>"...)
	b = append(b, searchBar...)
	b = append(b, "\n<h2>Query</h2>\n"...)
	for _, c := range v.Constraints {
		b = append(b, "\n<span class=\"constraint\">"...)
		b = appendHTML(b, c.Text)
		b = append(b, "\n<a href=\"/rm?i="...)
		b = strconv.AppendInt(b, int64(c.Index), 10)
		b = append(b, "\" title=\"remove\">✕</a>\n<a href=\"/neg?i="...)
		b = strconv.AppendInt(b, int64(c.Index), 10)
		b = append(b, "\" title=\"negate\">¬</a></span>\n"...)
	}
	if len(v.Constraints) == 0 {
		b = append(b, `<span class="detail">(all items)</span>`...)
	}
	b = append(b, '\n')
	for _, sec := range v.Sections {
		b = append(b, "\n<h2>"...)
		b = appendHTML(b, sec.Advisor)
		b = append(b, "</h2>\n"...)
		for _, g := range sec.Groups {
			if g.Title != "" {
				b = append(b, "<h3>"...)
				b = appendHTML(b, g.Title)
				b = append(b, "</h3>"...)
			}
			b = append(b, "\n<ul>\n"...)
			for _, sg := range g.Suggestions {
				b = append(b, `<li><a href="/go?k=`...)
				b = appendQuery(b, sg.Key)
				b = append(b, `">`...)
				b = appendHTML(b, sg.Title)
				b = append(b, "</a>\n"...)
				if sg.Detail != "" {
					b = append(b, `<span class="detail">(`...)
					b = appendHTML(b, sg.Detail)
					b = append(b, `)</span>`...)
				}
				b = append(b, '\n')
				if sg.IsRefine {
					b = append(b, `<span class="modes"><a href="/go?k=`...)
					b = appendQuery(b, sg.Key)
					b = append(b, `&mode=exclude">not</a><a href="/go?k=`...)
					b = appendQuery(b, sg.Key)
					b = append(b, `&mode=expand">or</a></span>`...)
				}
				b = append(b, "</li>\n"...)
			}
			b = append(b, '\n')
			if g.Omitted != 0 {
				b = append(b, `<li class="detail">… `...)
				b = strconv.AppendInt(b, int64(g.Omitted), 10)
				b = append(b, ` more</li>`...)
			}
			b = append(b, "\n</ul>\n"...)
		}
	}
	b = append(b, "\n</nav>\n<main>\n<h2>"...)
	b = strconv.AppendInt(b, int64(v.Total), 10)
	b = append(b, " items</h2>\n<ul>\n"...)
	for _, it := range v.Items {
		b = append(b, `<li><a href="/open?item=`...)
		b = appendQuery(b, it.IRI)
		b = append(b, `">`...)
		b = appendHTML(b, it.Label)
		b = append(b, `</a></li>`...)
	}
	b = append(b, '\n')
	if v.Total > len(v.Items) {
		b = append(b, `<li class="detail">… showing first `...)
		b = strconv.AppendInt(b, int64(len(v.Items)), 10)
		b = append(b, `</li>`...)
	}
	return append(b, "\n</ul>\n</main>"...)
}

// appendPage writes an item card with navigable resource values.
//
//magnet:hot
func (v *itemView) appendPage(b []byte) []byte {
	b = append(b, "<!doctype html><title>"...)
	b = appendHTML(b, v.Label)
	b = append(b, "</title>"...)
	b = append(b, baseCSS...)
	b = append(b, "\n<nav><h1>"...)
	b = appendHTML(b, v.Label)
	b = append(b, "</h1>"...)
	b = append(b, searchBar...)
	b = append(b, `<p class="detail">`...)
	b = appendHTML(b, v.IRI)
	b = append(b, "</p>\n<p><a href=\"/\">← to collection &amp; suggestions</a></p></nav>\n<main>\n<h2>"...)
	b = appendHTML(b, v.Label)
	b = append(b, "</h2>\n<table>\n"...)
	for _, a := range v.Attributes {
		b = append(b, "<tr><td><b>"...)
		b = appendHTML(b, a.Prop)
		b = append(b, "</b></td><td>\n"...)
		for _, val := range a.Values {
			if val.IRI != "" {
				b = append(b, `<a href="/open?item=`...)
				b = appendQuery(b, val.IRI)
				b = append(b, `">`...)
				b = appendHTML(b, val.Label)
				b = append(b, "</a> "...)
			} else {
				b = appendHTML(b, val.Label)
				b = append(b, ' ')
			}
		}
		b = append(b, "\n</td></tr>"...)
	}
	b = append(b, "\n</table>\n"...)
	if len(v.Similar) > 0 {
		b = append(b, "\n<h2>Similar by content</h2>\n<ul>\n"...)
		for _, sim := range v.Similar {
			b = append(b, `<li><a href="/open?item=`...)
			b = appendQuery(b, sim.IRI)
			b = append(b, `">`...)
			b = appendHTML(b, sim.Label)
			b = append(b, "</a>\n<span class=\"detail\">"...)
			b = appendHTML(b, sim.Score)
			b = append(b, " — "...)
			b = appendHTML(b, sim.Why)
			b = append(b, "</span></li>"...)
		}
		b = append(b, "\n</ul>\n"...)
	}
	return append(b, "\n</main>"...)
}

// appendPage writes the Figure 2 facet overview with count bars.
//
//magnet:hot
func (v *overviewView) appendPage(b []byte) []byte {
	b = append(b, "<!doctype html><title>Overview</title>"...)
	b = append(b, baseCSS...)
	b = append(b, "\n<nav><h1>Overview</h1>"...)
	b = append(b, searchBar...)
	b = append(b, "<p><a href=\"/\">← back to collection</a></p></nav>\n<main>\n<h2>Overview of "...)
	b = strconv.AppendInt(b, int64(v.Total), 10)
	b = append(b, " items</h2>\n"...)
	for _, f := range v.Facets {
		b = append(b, "\n<h3>"...)
		b = appendHTML(b, f.Label)
		b = append(b, ` <span class="detail">(`...)
		b = strconv.AppendInt(b, int64(f.Distinct), 10)
		b = append(b, " values)</span></h3>\n<table>\n"...)
		for _, val := range f.Values {
			b = append(b, `<tr><td><a href="/refine?prop=`...)
			b = appendQuery(b, val.Prop)
			b = append(b, "&vk="...)
			b = appendQuery(b, val.Key)
			b = append(b, `">`...)
			b = appendHTML(b, val.Label)
			b = append(b, "</a></td>\n<td>"...)
			b = strconv.AppendInt(b, int64(val.Count), 10)
			b = append(b, "</td>\n<td><span class=\"bar\" style=\"width:"...)
			b = strconv.AppendInt(b, int64(val.Width), 10)
			b = append(b, `px"></span></td></tr>`...)
		}
		b = append(b, "\n</table>\n"...)
	}
	return append(b, "\n</main>"...)
}

// appendPage writes the Figure 5 range widget: histogram preview plus a
// bounds form.
//
//magnet:hot
func (v *rangeView) appendPage(b []byte) []byte {
	b = append(b, "<!doctype html><title>"...)
	b = appendHTML(b, v.Title)
	b = append(b, "</title>"...)
	b = append(b, baseCSS...)
	b = append(b, "\n<nav><h1>"...)
	b = appendHTML(b, v.Title)
	b = append(b, "</h1>"...)
	b = append(b, searchBar...)
	b = append(b, "<p><a href=\"/\">← back</a></p></nav>\n<main>\n<h2>"...)
	b = appendHTML(b, v.Title)
	b = append(b, "</h2>\n<p class=\"detail\">observed range: "...)
	b = appendFloat(b, v.Min)
	b = append(b, " — "...)
	b = appendFloat(b, v.Max)
	b = append(b, "</p>\n<p>"...)
	for _, h := range v.Buckets {
		b = append(b, `<span class="bar" style="width:8px;height:`...)
		b = strconv.AppendInt(b, int64(h), 10)
		b = append(b, `px"></span> `...)
	}
	b = append(b, "</p>\n<form action=\"/range\" method=\"get\">\n<input type=\"hidden\" name=\"prop\" value=\""...)
	b = appendHTML(b, v.Prop)
	b = append(b, "\">\nfrom <input type=\"text\" name=\"lo\" value=\""...)
	b = appendFloat(b, v.Min)
	b = append(b, "\">\nto <input type=\"text\" name=\"hi\" value=\""...)
	b = appendFloat(b, v.Max)
	return append(b, "\">\n<button>Apply range</button>\n</form>\n</main>"...)
}

// appendHTML appends s escaped as html/template escapes text, RCDATA and
// quoted attribute values. The escaped bytes are all ASCII, so a byte
// scan matches html/template's rune scan; every other byte, invalid UTF-8
// included, passes through.
//
//magnet:hot
func appendHTML(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case 0:
			repl = "\uFFFD"
		case '"':
			repl = "&#34;"
		case '&':
			repl = "&amp;"
		case '\'':
			repl = "&#39;"
		case '+':
			repl = "&#43;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, repl...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// appendQuery appends s escaped as html/template escapes a value inside a
// URL's query: every byte outside the RFC 3986 unreserved set becomes %xx
// in lowercase hex. Unlike url.QueryEscape, a space is %20, not +.
//
//magnet:hot
func appendQuery(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '.' || c == '_' || c == '~' {
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, '%', hex[c>>4], hex[c&15])
		last = i + 1
	}
	return append(b, s[last:]...)
}

// appendFloat appends f as fmt.Sprint writes a float64, html-escaped: of
// the bytes it can produce only the + of an exponent or of +Inf needs it.
//
//magnet:hot
func appendFloat(b []byte, f float64) []byte {
	var buf [32]byte
	for _, c := range strconv.AppendFloat(buf[:0], f, 'g', -1, 64) {
		if c == '+' {
			b = append(b, "&#43;"...)
		} else {
			b = append(b, c)
		}
	}
	return b
}
