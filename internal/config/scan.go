package config

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The reader is a single pass over the document for the grammar McPAT
// documents use:
//
//	document := BOM? misc* component misc*
//	misc     := whitespace | <!-- comment --> | <?target ...?>
//	component:= <component attrs> (misc | component | param | stat)* </component>
//	            | <component attrs/>
//	param    := <param attrs/> | <param attrs> misc* </param>  (stat alike)
//	attrs    := (name = "value" | name = 'value')*
//
// Names are ASCII without a colon. Attribute values decode the five
// predefined entities and numeric character references, and turn each
// \r\n and lone \r into \n. A <component> keeps its id and type, an
// entry its name and value; other attributes are ignored and the last
// of duplicates wins. An <?xml ...?> declaration must name version 1.0
// and UTF-8 if it names either. Everything else is an error: a
// DOCTYPE or other <! declaration, CDATA, namespace prefixes and xmlns
// attributes, other elements, character data, and content after the
// root. Where encoding/xml accepts a document this grammar accepts, the
// trees are equal (FuzzParseMatchesDecoder).

// bom is the UTF-8 byte order mark a document may start with.
const bom = "\uFEFF"

// maxDepth bounds component nesting. encoding/xml stops at 5,000 nested
// components; McPAT documents nest a handful.
const maxDepth = 1000

// scanner reads one document. Values without references or carriage
// returns are substrings of doc.
type scanner struct {
	doc string
	pos int
}

func (s *scanner) errorf(format string, args ...any) error {
	line := 1 + strings.Count(s.doc[:s.pos], "\n")
	return &xml.SyntaxError{Msg: fmt.Sprintf(format, args...), Line: line}
}

func (s *scanner) eof() error {
	s.pos = len(s.doc)
	return s.errorf("unexpected EOF")
}

// scan parses the document into its root component.
func scan(doc string) (*Component, error) {
	s := scanner{doc: doc}
	if strings.HasPrefix(doc, bom) {
		s.pos = len(bom)
	}
	var root *Component
	var open []*Component // components whose end tag is pending
	for {
		if err := s.misc(); err != nil {
			return nil, err
		}
		if s.pos == len(s.doc) {
			if len(open) > 0 {
				return nil, s.eof()
			}
			if root == nil {
				return nil, s.errorf("no root element")
			}
			return root, nil
		}
		if root != nil && len(open) == 0 {
			return nil, s.errorf("content after the root element")
		}
		s.pos++ // '<'
		if s.pos < len(s.doc) && s.doc[s.pos] == '/' {
			if len(open) == 0 {
				return nil, s.errorf("unexpected end element")
			}
			if err := s.endTag("component"); err != nil {
				return nil, err
			}
			open = open[:len(open)-1]
			continue
		}
		name, err := s.name("element")
		if err != nil {
			return nil, err
		}
		switch {
		case root == nil && name != "component":
			return nil, s.errorf("expected element type <component> but have <%s>", name)
		case name == "component":
			if len(open) == maxDepth {
				return nil, s.errorf("components nest deeper than %d", maxDepth)
			}
			c := &Component{XMLName: xml.Name{Local: "component"}}
			empty, err := s.attrs("id", &c.ID, "type", &c.Type)
			if err != nil {
				return nil, err
			}
			if root == nil {
				root = c
			} else {
				parent := open[len(open)-1]
				parent.Children = append(parent.Children, c)
			}
			if !empty {
				open = append(open, c)
			}
		case name == "param" || name == "stat":
			var e Entry
			if err := s.entry(name, &e); err != nil {
				return nil, err
			}
			if parent := open[len(open)-1]; name == "param" {
				parent.Params = append(parent.Params, e)
			} else {
				parent.Stats = append(parent.Stats, e)
			}
		default:
			return nil, s.errorf("unsupported element <%s>", name)
		}
	}
}

// entry scans a <param> or <stat> element after its name.
func (s *scanner) entry(name string, e *Entry) error {
	empty, err := s.attrs("name", &e.Name, "value", &e.Value)
	if err != nil || empty {
		return err
	}
	if err := s.misc(); err != nil {
		return err
	}
	if !strings.HasPrefix(s.doc[s.pos:], "</") {
		if s.pos == len(s.doc) {
			return s.eof()
		}
		return s.errorf("<%s> may hold no element", name)
	}
	s.pos++
	return s.endTag(name)
}

// misc skips whitespace, comments and processing instructions. It stops
// at the end of the document or at the next tag.
func (s *scanner) misc() error {
	for s.pos < len(s.doc) {
		rest := s.doc[s.pos:]
		switch {
		case isSpace(rest[0]):
			s.pos++
		case rest[0] != '<':
			return s.errorf("unexpected character data")
		case strings.HasPrefix(rest, "<!--"):
			body := rest[len("<!--"):]
			i := strings.Index(body, "--")
			if i < 0 || i+2 == len(body) {
				return s.eof()
			}
			s.pos += len("<!--") + i
			if body[i+2] != '>' {
				return s.errorf(`invalid sequence "--" not allowed in comments`)
			}
			s.pos += len("-->")
		case strings.HasPrefix(rest, "<?"):
			if err := s.procInst(); err != nil {
				return err
			}
		case strings.HasPrefix(rest, "<!"):
			return s.errorf("unsupported <! markup: DOCTYPE, CDATA and declarations are not read")
		default:
			return nil
		}
	}
	return nil
}

// procInst skips a processing instruction. One with target xml is the
// XML declaration, which must not name a version other than 1.0 or an
// encoding other than UTF-8.
func (s *scanner) procInst() error {
	s.pos += len("<?")
	target, err := s.name("processing instruction target")
	if err != nil {
		return err
	}
	s.space()
	body, _, ok := strings.Cut(s.doc[s.pos:], "?>")
	if !ok {
		return s.eof()
	}
	if target == "xml" {
		if v := pseudoAttr(body, "version="); v != "" && v != "1.0" {
			return s.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if e := pseudoAttr(body, "encoding="); e != "" && !strings.EqualFold(e, "utf-8") {
			return s.errorf("unsupported encoding %q; only UTF-8 is supported", e)
		}
	}
	s.pos += len(body) + len("?>")
	return nil
}

// pseudoAttr returns the quoted value after the first occurrence of key
// (which ends in '=') that a quote follows, as encoding/xml reads an XML
// declaration, or "".
func pseudoAttr(body, key string) string {
	for {
		i := strings.Index(body, key)
		if i < 0 || i+len(key) == len(body) {
			return ""
		}
		body = body[i+len(key):]
		if q := body[0]; q == '"' || q == '\'' {
			v, _, ok := strings.Cut(body[1:], body[:1])
			if !ok {
				return ""
			}
			return v
		}
		body = body[1:]
	}
}

// name scans an ASCII XML name without a colon; what is the kind of
// name, for the error.
func (s *scanner) name(what string) (string, error) {
	start := s.pos
	for s.pos < len(s.doc) && isNameByte(s.doc[s.pos]) {
		s.pos++
	}
	switch {
	case s.pos < len(s.doc) && (s.doc[s.pos] == ':' || s.doc[s.pos] >= utf8.RuneSelf):
		return "", s.errorf("unsupported %s name: names are ASCII without a colon", what)
	case s.pos == len(s.doc):
		return "", s.eof()
	case s.pos == start:
		return "", s.errorf("expected %s name", what)
	case !isNameStart(s.doc[start]):
		return "", s.errorf("invalid XML name: %s", s.doc[start:s.pos])
	}
	return s.doc[start:s.pos], nil
}

// endTag scans an end tag from its '/', which must close want.
func (s *scanner) endTag(want string) error {
	s.pos++ // '/'
	name, err := s.name("element")
	if err != nil {
		return err
	}
	s.space()
	if s.pos == len(s.doc) {
		return s.eof()
	}
	if s.doc[s.pos] != '>' {
		return s.errorf("invalid characters between </%s and >", name)
	}
	if name != want {
		return s.errorf("element <%s> closed by </%s>", want, name)
	}
	s.pos++
	return nil
}

// attrs scans a start tag's attributes through its '>' or '/>' and
// reports whether the tag closed itself. The values of the attributes
// named k1 and k2 land in v1 and v2; others are dropped.
func (s *scanner) attrs(k1 string, v1 *string, k2 string, v2 *string) (empty bool, err error) {
	for {
		s.space()
		if s.pos == len(s.doc) {
			return false, s.eof()
		}
		switch s.doc[s.pos] {
		case '>':
			s.pos++
			return false, nil
		case '/':
			if !strings.HasPrefix(s.doc[s.pos:], "/>") {
				return false, s.errorf("expected /> in element")
			}
			s.pos += len("/>")
			return true, nil
		}
		name, err := s.name("attribute")
		if err != nil {
			return false, err
		}
		if name == "xmlns" {
			return false, s.errorf("unsupported xmlns attribute: namespaces are not read")
		}
		s.space()
		if s.pos == len(s.doc) || s.doc[s.pos] != '=' {
			return false, s.errorf("attribute name without = in element")
		}
		s.pos++
		s.space()
		v, err := s.value()
		if err != nil {
			return false, err
		}
		switch name {
		case k1:
			*v1 = v
		case k2:
			*v2 = v
		}
	}
}

// value scans a quoted attribute value.
func (s *scanner) value() (string, error) {
	if s.pos == len(s.doc) {
		return "", s.eof()
	}
	q := s.doc[s.pos]
	if q != '"' && q != '\'' {
		return "", s.errorf("unquoted or missing attribute value in element")
	}
	s.pos++
	start, plain := s.pos, true
	for ; s.pos < len(s.doc); s.pos++ {
		c := s.doc[s.pos]
		switch {
		case c == q:
			raw := s.doc[start:s.pos]
			s.pos++
			if plain {
				return raw, nil
			}
			return s.decode(raw)
		case c == '<':
			return "", s.errorf("unescaped < inside quoted string")
		case c == '&' || c == '\r':
			plain = false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(s.doc[s.pos:])
			if r == utf8.RuneError && n == 1 {
				return "", s.errorf("invalid UTF-8")
			}
			if !isChar(r) {
				return "", s.errorf("illegal character code %U", r)
			}
			s.pos += n - 1
		case c < ' ' && c != '\t' && c != '\n':
			return "", s.errorf("illegal character code %U", rune(c))
		}
	}
	return "", s.eof()
}

// decode replaces the references in a raw attribute value and turns
// each \r\n and lone \r into \n.
func (s *scanner) decode(raw string) (string, error) {
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; c {
		case '\r':
			b = append(b, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		case '&':
			r, n := reference(raw[i+1:])
			if n == 0 {
				ref, _, _ := strings.Cut(raw[i:], ";")
				return "", s.errorf("invalid character entity %s", ref)
			}
			b = utf8.AppendRune(b, r)
			i += n
		default:
			b = append(b, c)
		}
	}
	return string(b), nil
}

// reference decodes the entity or character reference that follows an
// '&' at the start of ref, and returns its rune and its length through
// the ';', or a length of 0 if it is not one. A reference to a
// surrogate is U+FFFD, as encoding/xml reads it.
func reference(ref string) (rune, int) {
	end := strings.IndexByte(ref, ';')
	if end < 0 {
		return 0, 0
	}
	switch ref[:end] {
	case "lt":
		return '<', end + 1
	case "gt":
		return '>', end + 1
	case "amp":
		return '&', end + 1
	case "apos":
		return '\'', end + 1
	case "quot":
		return '"', end + 1
	}
	num, ok := strings.CutPrefix(ref[:end], "#")
	if !ok {
		return 0, 0
	}
	base := 10
	if hex, ok := strings.CutPrefix(num, "x"); ok {
		num, base = hex, 16
	}
	n, err := strconv.ParseUint(num, base, 64)
	if err != nil || n > utf8.MaxRune {
		return 0, 0
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		r = utf8.RuneError
	}
	if !isChar(r) {
		return 0, 0
	}
	return r, end + 1
}

func (s *scanner) space() {
	for s.pos < len(s.doc) && isSpace(s.doc[s.pos]) {
		s.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool { return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' }

func isNameByte(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

// isChar reports whether r is in XML's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		' ' <= r && r <= 0xD7FF || 0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= utf8.MaxRune
}
