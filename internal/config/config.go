// Package config implements McPAT's XML interface: hierarchical
// <component> elements carrying <param> (static configuration) and <stat>
// (runtime statistics) entries. The same file format both configures the
// modeled chip and delivers the per-component activity statistics an
// external performance simulator produces, decoupling performance
// simulation from power/area/timing modeling exactly as the paper
// describes.
//
// Parse reads a document in one pass over its bytes, for the grammar
// stated in scan.go, and rejects what that grammar leaves out. Write
// keeps encoding/xml's encoder. The encoding/xml decoder Parse replaced
// is the test-only reference the reader is fuzzed against.
package config

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mcpat/internal/guard"
)

// Component is one node of the XML configuration tree.
type Component struct {
	XMLName  xml.Name     `xml:"component"`
	ID       string       `xml:"id,attr"`
	Type     string       `xml:"type,attr"`
	Params   []Entry      `xml:"param"`
	Stats    []Entry      `xml:"stat"`
	Children []*Component `xml:"component"`
}

// Entry is a name/value pair.
type Entry struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Parse reads an XML configuration document to its end. Every error,
// the reader's included, is a config error.
func Parse(r io.Reader) (*Component, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, guard.Wrap(guard.ErrConfig, "config", err)
	}
	return ParseString(string(b))
}

// ParseString parses an XML document held in a string. The tree's
// strings share the document's memory.
func ParseString(s string) (*Component, error) {
	root, err := scan(s)
	if err != nil {
		return nil, guard.Wrap(guard.ErrConfig, "config", err)
	}
	if root.ID == "" {
		return nil, guard.Configf("config", "root component has no id")
	}
	return root, nil
}

// Write serializes the component tree as indented XML.
func (c *Component) Write(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(c); err != nil {
		return err
	}
	enc.Flush()
	_, err := io.WriteString(w, "\n")
	return err
}

// String renders the tree as XML.
func (c *Component) String() string {
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return b.String()
}

// Child returns the direct child with the given id suffix (the part after
// the last dot) or full id, or nil.
func (c *Component) Child(id string) *Component {
	for _, ch := range c.Children {
		if ch.ID == id {
			return ch
		}
		if i := strings.LastIndex(ch.ID, "."); i >= 0 && ch.ID[i+1:] == id {
			return ch
		}
	}
	return nil
}

// SetParam adds or replaces a parameter.
func (c *Component) SetParam(name, value string) {
	for i := range c.Params {
		if c.Params[i].Name == name {
			c.Params[i].Value = value
			return
		}
	}
	c.Params = append(c.Params, Entry{Name: name, Value: value})
}

// SetStat adds or replaces a statistic.
func (c *Component) SetStat(name, value string) {
	for i := range c.Stats {
		if c.Stats[i].Name == name {
			c.Stats[i].Value = value
			return
		}
	}
	c.Stats = append(c.Stats, Entry{Name: name, Value: value})
}

func lookup(entries []Entry, name string) (string, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e.Value, true
		}
	}
	return "", false
}

// Param returns a parameter value and whether it was present.
func (c *Component) Param(name string) (string, bool) { return lookup(c.Params, name) }

// Stat returns a statistic value and whether it was present.
func (c *Component) Stat(name string) (string, bool) { return lookup(c.Stats, name) }

// ParamInt returns an integer parameter, or def when absent.
func (c *Component) ParamInt(name string, def int) int {
	if v, ok := c.Param(name); ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			return n
		}
	}
	return def
}

// ParamFloat returns a float parameter, or def when absent.
func (c *Component) ParamFloat(name string, def float64) float64 {
	if v, ok := c.Param(name); ok {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			return f
		}
	}
	return def
}

// ParamBool returns a boolean parameter ("1"/"true"/"yes"), or def.
func (c *Component) ParamBool(name string, def bool) bool {
	if v, ok := c.Param(name); ok {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "1", "true", "yes":
			return true
		case "0", "false", "no":
			return false
		}
	}
	return def
}

// ParamString returns a string parameter, or def when absent.
func (c *Component) ParamString(name, def string) string {
	if v, ok := c.Param(name); ok {
		return strings.TrimSpace(v)
	}
	return def
}

// StatFloat returns a float statistic, or def when absent.
func (c *Component) StatFloat(name string, def float64) float64 {
	if v, ok := c.Stat(name); ok {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			return f
		}
	}
	return def
}
