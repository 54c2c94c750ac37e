package sched

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"mlcd/internal/search"
)

// Replay decodes every journal line, and reflection-driven
// encoding/json was over half of a restart's CPU. decodeRecord parses
// the lines the writer produces — json.Marshal(journalRecord), no
// whitespace, keys in field order — without reflection, and hands any
// line that deviates by one byte to json.Unmarshal. json.Unmarshal
// stays the definition of a record: the fast path accepts a line only
// when its value is exactly what json.Unmarshal would yield, which
// FuzzDecodeRecord checks.

// recordKeys and observationKeys are the JSON keys of journalRecord and
// search.SavedObservation in field order, the order json.Marshal writes
// them in.
var (
	recordKeys = []string{"type", "id", "job", "tenant", "budget_usd", "deadline_hours",
		"observation", "duration_sec", "cost_usd", "status", "error"}
	observationKeys = []string{"type", "nodes", "throughput_samples_per_sec"}
)

// decodeRecord decodes one journal line.
func decodeRecord(line []byte) (journalRecord, error) {
	if rec, ok := parseRecord(line); ok {
		return rec, nil
	}
	var rec journalRecord
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// parseRecord is the reflection-free path: ok is false for any line it
// does not accept, and the caller then falls back to json.Unmarshal.
func parseRecord(line []byte) (rec journalRecord, ok bool) {
	p := lineParser{b: line}
	ok = p.object(recordKeys, func(key string) (ok bool) {
		switch key {
		case "type":
			rec.Type, ok = p.str()
		case "id":
			rec.ID, ok = p.str()
		case "job":
			rec.Job, ok = p.str()
		case "tenant":
			rec.Tenant, ok = p.str()
		case "budget_usd":
			rec.BudgetUSD, ok = p.float()
		case "deadline_hours":
			rec.DeadlineHours, ok = p.float()
		case "observation":
			o := new(search.SavedObservation)
			rec.Observation = o
			ok = p.object(observationKeys, func(key string) (ok bool) {
				switch key {
				case "type":
					o.Type, ok = p.str()
				case "nodes":
					o.Nodes, ok = p.int()
				case "throughput_samples_per_sec":
					o.Throughput, ok = p.float()
				}
				return ok
			})
		case "duration_sec":
			rec.DurationSec, ok = p.float()
		case "cost_usd":
			rec.CostUSD, ok = p.float()
		case "status":
			var s string
			s, ok = p.str()
			rec.Status = Status(s)
		case "error":
			rec.Error, ok = p.str()
		}
		return ok
	})
	return rec, ok && p.i == len(p.b)
}

// lineParser reads the subset of JSON that json.Marshal writes for a
// journal record. Every method reports false on anything outside it.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object reads an object with no whitespace whose keys are a
// subsequence of keys: in that order, each at most once. value reads
// the value of each key it is called with.
func (p *lineParser) object(keys []string, value func(key string) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	next := 0 // keys[:next] may not appear again
	for {
		key, ok := p.raw()
		for ok && next < len(keys) && keys[next] != string(key) {
			next++
		}
		if !ok || next == len(keys) || !p.eat(':') || !value(keys[next]) {
			return false
		}
		next++
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// raw reads a string whose bytes are its value — no backslash, no
// control byte, valid UTF-8 (encoding/json replaces invalid UTF-8) —
// and returns those bytes.
func (p *lineParser) raw() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			v := p.b[start:p.i]
			p.i++
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// str is raw as a string of its own, so a field kept for the life of
// the daemon does not pin the rest of its line.
func (p *lineParser) str() (string, bool) {
	v, ok := p.raw()
	return string(v), ok
}

// number reads a literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which encoding/json
// checks before it calls strconv.
func (p *lineParser) number() ([]byte, bool) {
	start := p.i
	p.eat('-')
	if !p.eat('0') && p.digits() == 0 {
		return nil, false
	}
	if p.eat('.') && p.digits() == 0 {
		return nil, false
	}
	if p.eat('e') || p.eat('E') {
		_ = p.eat('+') || p.eat('-')
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

func (p *lineParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// float and int convert as encoding/json does for float64 and int
// fields; a value strconv refuses is an error there too.
func (p *lineParser) float() (float64, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	return f, err == nil
}

func (p *lineParser) int() (int, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	return int(n), err == nil
}
