// Package xmlwr is a small streaming XML writer. The WSDL generator uses
// it; the serializers emit their own bytes (the differential engine must
// control field widths and record value positions).
package xmlwr

import (
	"errors"
	"fmt"

	"bsoap/internal/xsdlex"
)

// Writer builds an XML document in an internal buffer. The zero value is
// ready to use. Errors (mismatched End, attribute after content) are
// sticky and reported by Err or Result.
type Writer struct {
	buf     []byte
	stack   []string
	openTag bool // the latest start tag has not had its '>' emitted yet
	err     error
}

// NewWriter returns a writer with an initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Decl emits the standard XML declaration.
func (w *Writer) Decl() *Writer {
	w.closeOpenTag()
	w.buf = append(w.buf, `<?xml version="1.0" encoding="UTF-8"?>`...)
	w.buf = append(w.buf, '\n')
	return w
}

// Start opens an element. Attributes may follow until the first content.
func (w *Writer) Start(name string) *Writer {
	if w.err != nil {
		return w
	}
	w.closeOpenTag()
	w.buf = append(w.buf, '<')
	w.buf = append(w.buf, name...)
	w.stack = append(w.stack, name)
	w.openTag = true
	return w
}

// Attr adds an attribute to the element opened by the preceding Start.
func (w *Writer) Attr(name, value string) *Writer {
	if w.err != nil {
		return w
	}
	if !w.openTag {
		w.err = fmt.Errorf("xmlwr: attribute %q after element content", name)
		return w
	}
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '=', '"')
	w.buf = xsdlex.EscapeText(w.buf, value)
	w.buf = append(w.buf, '"')
	return w
}

// End closes the most recently opened element.
func (w *Writer) End() *Writer {
	if w.err != nil {
		return w
	}
	if len(w.stack) == 0 {
		w.err = errors.New("xmlwr: End with no open element")
		return w
	}
	name := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	if w.openTag {
		// Empty element: use the self-closing form.
		w.buf = append(w.buf, '/', '>')
		w.openTag = false
		return w
	}
	w.buf = append(w.buf, '<', '/')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '>')
	return w
}

// Err reports the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Result returns the document bytes, failing if elements remain open or an
// earlier call errored.
func (w *Writer) Result() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.stack) != 0 {
		return nil, fmt.Errorf("xmlwr: %d element(s) left open (innermost %q)",
			len(w.stack), w.stack[len(w.stack)-1])
	}
	w.closeOpenTag()
	return w.buf, nil
}

func (w *Writer) closeOpenTag() {
	if w.openTag {
		w.buf = append(w.buf, '>')
		w.openTag = false
	}
}
