package config

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/presets"
)

// idiomDocs are hand-written documents in the idioms of McPAT's shipped
// XML and of gem5-to-McPAT converters. Each parses to the reference
// decoder's tree, and each is a fuzz seed.
var idiomDocs = []struct{ name, doc string }{
	{"mcpat header and name attributes", `<?xml version="1.0" ?>
<component id="system" name="system" type="System">
	<!--McPAT will skip the components if number is set to 0 -->
	<param name="tech_node_nm" value="45"/>
	<param name="clock_mhz" value="2000"/><!-- MHz -->
	<component id="system.core" name="core" type="Core">
		<param name="issue_width" value="4"/>
		<stat name="int_ops_per_cycle" value="1.7"/>
	</component>
</component>
`},
	{"BOM and UTF-8 declaration", "\uFEFF<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" +
		`<component id="system" type="System"><param name="tech_node_nm" value="22"/></component>`},
	{"encoding in another letter case", `<?xml version='1.0' encoding='Utf-8' standalone='yes'?>` +
		`<component id="system" type="System"/>`},
	{"comments before, between and inside components", `<!-- generated by a gem5 converter -->
<!-- template: mcpat-template.xml -->
<component id="system" type="System">
	<!-- chip-level parameters -->
	<param name="num_cores" value="2"/>
	<!-- a comment - with single dashes - -->
	<component id="system.core" type="Core"><!-- core --></component>
	<!---->
	<component id="system.L2" type="CacheUnit">
		<param name="bytes" value="1048576"><!-- 1 MiB --></param>
	</component>
</component>
<!-- end of document -->
`},
	{"processing instructions", `<?xml version="1.0"?>
<?xml-stylesheet type="text/xsl" href="mcpat.xsl"?>
<component id="system" type="System">
	<?gem5 converter="m5-mcpat" version="2"?>
	<param name="vdd" value="0.9"/>
	<stat name="noc_flits_per_sec" value="1e9"><?pi?></stat>
</component>
<?trailer?>`},
	{"self-closing and empty entries", `<component id="system" type="System">
	<param name="a" value="1"/>
	<param name="b" value="2"></param>
	<stat name="c" value="3">
	</stat>
	<param/>
	<param name="" value=""/>
	<component id="system.L3" type="CacheUnit"/>
</component>`},
	{"single quotes, spaced =, attributes across lines", `<component
	id = 'system'
	type='System' >
	<param
		name = 'device_type'
		value = "it's &quot;HP&quot;" />
	<stat name='x'value='1'/>
</component  >`},
	{"CRLF line endings", "<?xml version=\"1.0\"?>\r\n<component id=\"system\" type=\"System\">\r\n" +
		"\t<param name=\"note\" value=\"two\r\nlines\"/>\r\n" +
		"\t<param name=\"cr\" value=\"lone\rcr\r\r\ndouble\"/>\r\n</component>\r\n"},
	{"entity and character references", `<component id="a&amp;b" type="&lt;System&gt;">
	<param name="note" value="x&amp;y&#10;&#x41;&apos;&quot;&#9;&#13;&#xd800;&#x10FFFF;"/>
	<param name="ratio" value="&#49;&#x2e;5"/>
</component>`},
	{"duplicate attributes, last wins", `<component id="first" id="system" type="System" type="System">
	<param name="vdd" value="0.8" value="1.0" name="vdd"/>
</component>`},
	{"unicode and markup characters in values", `<component id="system" type="System">
	<param name="name" value="Niagara – 90 nm, µ-arch &gt; 8 cores ]]> done"/>
	<param name="path" value="a/b?c=d>e"/>
</component>`},
	{"tabs and trailing whitespace", "\n\t <component\tid=\"system\"\ttype=\"System\"\t/>\t\n \n"},
}

func TestParseMatchesReferenceIdioms(t *testing.T) {
	for _, tc := range idiomDocs {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseString(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refParse(tc.doc)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanner\n%s\nreference\n%s", treeText(got), treeText(want))
			}
		})
	}
}

// TestParseDecodesValues spells out what a few attribute values read
// as, on top of matching the reference.
func TestParseDecodesValues(t *testing.T) {
	for _, tc := range []struct{ raw, want string }{
		{"plain 1.5e9", "plain 1.5e9"},
		{"a&amp;b", "a&b"},
		{"&lt;&gt;&quot;&apos;", `<>"'`},
		{"line&#10;break", "line\nbreak"},
		{"&#x41;&#66;", "AB"},
		{"crlf\r\nlf", "crlf\nlf"},
		{"lone\rcr", "lone\ncr"},
		{"&#13;\n", "\r\n"},
		{"tab\tkept", "tab\tkept"},
		{"&#xD800;", "\uFFFD"},
		{"µ", "µ"},
	} {
		doc := `<component id="x"><param name="v" value="` + tc.raw + `"/></component>`
		root, err := ParseString(doc)
		if err != nil {
			t.Errorf("%q: %v", tc.raw, err)
			continue
		}
		if v, _ := root.Param("v"); v != tc.want {
			t.Errorf("%q read as %q, want %q", tc.raw, v, tc.want)
		}
		if ref, err := refParse(doc); err != nil || !reflect.DeepEqual(root, ref) {
			t.Errorf("%q: reference %v, %v", tc.raw, ref, err)
		}
	}
}

// TestParseRejectsContentOutsideRoot: outside the root element only a
// leading BOM and whitespace, comments and processing instructions may
// appear. The reference decoder stopped reading at the root's end tag
// and skipped text before it, so it took the first of two roots.
func TestParseRejectsContentOutsideRoot(t *testing.T) {
	const root = `<component id="a" type="System"><param name="x" value="1"/></component>`
	for name, doc := range map[string]string{
		"second root":            root + `<component id="b" type="System"><param name="x" value="2"/></component>`,
		"text before the root":   "junk text " + root,
		"text after the root":    root + "garbage &bogus; <<<",
		"end tag after the root": root + "</component>",
		"reference before root":  "&#32;" + root,
		"BOM after the start":    " \uFEFF" + root,
		"CDATA after the root":   root + "<![CDATA[x]]>",
		"open comment after":     root + "<!-- not closed",
	} {
		if _, err := ParseString(doc); !errors.Is(err, guard.ErrConfig) {
			t.Errorf("%s: got %v, want a config error", name, err)
		}
	}
	doc := "\uFEFF<?xml version=\"1.0\"?>\n<!-- c -->\n<?pi x?>\n" + root + "\n<!-- end -->\n<?pi y?>\n"
	if _, err := ParseString(doc); err != nil {
		t.Errorf("whitespace, comments and processing instructions around the root: %v", err)
	}
}

// TestParseRejections pins the rejection contract: every row is a config
// error. refAccepts says whether the encoding/xml reference accepted the
// document; those rows are the classes of input the scanner newly
// rejects, which CHANGES.md lists and newRejection names.
func TestParseRejections(t *testing.T) {
	const root = `<component id="a" type="System"><param name="x" value="1"/></component>`
	nest := func(n int) string {
		return strings.Repeat(`<component id="a">`, n) + strings.Repeat(`</component>`, n)
	}
	for _, tc := range []struct {
		name, doc  string
		refAccepts bool
	}{
		{"empty document", "", false},
		{"no id on the root", `<component type="System"/>`, false},
		{"root is not a component", `<param name="a" value="1"/>`, false},
		{"XML version 1.1", `<?xml version="1.1"?>` + root, false},
		{"encoding other than UTF-8", `<?xml version="1.0" encoding="ISO-8859-1"?>` + root, false},
		{"encoding declared after the root", root + `<?xml encoding="latin1"?>`, true},
		{"-- inside a comment", `<!-- a -- b -->` + root, false},
		{"other named entity", `<component id="&nbsp;"/>`, false},
		{"reference without ;", `<component id="a&amp b"/>`, false},
		{"character reference out of range", `<component id="&#x110000;"/>`, false},
		{"character reference to a non-Char", `<component id="&#1;"/>`, false},
		{"< inside a value", `<component id="a<b"/>`, false},
		{"invalid UTF-8 in a value", "<component id=\"a\xffb\"/>", false},
		{"control character in a value", "<component id=\"a\x01b\"/>", false},
		{"U+FFFE in a value", "<component id=\"a\uFFFEb\"/>", false},
		{"unquoted value", `<component id=a/>`, false},
		{"attribute without a value", `<component id/>`, false},
		{"mismatched end tag", `<component id="a"><param name="x"></stat></component>`, false},
		{"unterminated root", `<component id="a"><param name="x" value="1"/>`, false},
		{"unterminated value", `<component id="a`, false},
		{"unterminated comment", `<!-- ` + root, false},
		{"unterminated processing instruction", `<?pi ` + root, false},
		{"name starting with a digit", `<component id="a"><1param/></component>`, false},
		{"nesting beyond encoding/xml's depth", nest(5001), false},

		{"DOCTYPE", `<!DOCTYPE component>` + root, true},
		{"DOCTYPE with an internal subset", `<!DOCTYPE component [<!ENTITY e "x">]>` + root, true},
		{"CDATA section", `<component id="a"><![CDATA[x]]></component>`, true},
		{"namespace prefix", `<x:component xmlns:x="u" x:id="a"></x:component>`, true},
		{"prefixed attribute", `<component id="a" xml:lang="en"/>`, true},
		{"default namespace", `<component xmlns="u" id="a"/>`, true},
		{"colon in a processing instruction target", `<?a:b?>` + root, true},
		{"other element", `<component id="a"><foo><bar/></foo></component>`, true},
		{"element inside a param", `<component id="a"><param name="x"><component id="b"/></param></component>`, true},
		{"character data inside a component", `<component id="a">text</component>`, true},
		{"reference as character data", `<component id="a">&#32;</component>`, true},
		{"non-ASCII element name", `<component id="a"><paramé/></component>`, true},
		{"second root", root + root, true},
		{"text before the root", "junk " + root, true},
		{"nesting beyond the scanner's depth", nest(maxDepth + 1), true},
	} {
		_, err := ParseString(tc.doc)
		if !errors.Is(err, guard.ErrConfig) {
			t.Errorf("%s: got %v, want a config error", tc.name, err)
		}
		if _, refErr := refParse(tc.doc); (refErr == nil) != tc.refAccepts {
			t.Errorf("%s: reference error %v, want accepted=%v", tc.name, refErr, tc.refAccepts)
		}
		if tc.refAccepts && newRejection(tc.doc) == "" {
			t.Errorf("%s: in no listed class", tc.name)
		}
	}
	if _, err := ParseString(nest(maxDepth)); err != nil {
		t.Errorf("nesting at the scanner's depth: %v", err)
	}
}

// TestParseReadsToTheEnd: the reader's error is a config error, also
// after the root element has closed.
func TestParseReadsToTheEnd(t *testing.T) {
	boom := errors.New("connection reset")
	r := &failingReader{data: `<component id="a"/>`, err: boom}
	if _, err := Parse(r); !errors.Is(err, guard.ErrConfig) || !errors.Is(err, boom) {
		t.Fatalf("got %v, want a config error wrapping the reader's", err)
	}
}

type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// treeText renders a tree with every field, nil slices apart from
// empty ones, for a failure message.
func treeText(c *Component) string {
	var b strings.Builder
	var walk func(c *Component, depth int)
	walk = func(c *Component, depth int) {
		fmt.Fprintf(&b, "%*s%#v id=%q type=%q params=%#v stats=%#v\n",
			2*depth, "", c.XMLName, c.ID, c.Type, c.Params, c.Stats)
		if c.Children == nil {
			fmt.Fprintf(&b, "%*s(nil children)\n", 2*depth, "")
		}
		for _, ch := range c.Children {
			walk(ch, depth+1)
		}
	}
	walk(c, 0)
	return b.String()
}

// presetDoc is the first preset's document with a statistics block at
// half of peak activity, as perfbench's serve-evaluate posts it.
func presetDoc(tb testing.TB) string {
	tb.Helper()
	cfg := presets.All()[0].Config
	const u = 0.5
	root := FromChipConfig(cfg)
	FromStats(root, &chip.Stats{
		CoreRun:    core.PeakActivity(cfg.Core).Scale(u),
		L2Reads:    u * 0.05 * cfg.ClockHz,
		L2Writes:   u * 0.02 * cfg.ClockHz,
		NoCFlits:   u * 0.04 * cfg.ClockHz,
		MCAccesses: u * 0.01 * cfg.ClockHz,
	})
	var b strings.Builder
	if err := root.Write(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// BenchmarkParse reads one preset document through Parse and through
// the encoding/xml reference, in the same run.
func BenchmarkParse(b *testing.B) {
	doc := presetDoc(b)
	for _, p := range []struct {
		name  string
		parse func(string) (*Component, error)
	}{
		{"scanner", func(s string) (*Component, error) { return Parse(strings.NewReader(s)) }},
		{"reference", refParse},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.parse(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
