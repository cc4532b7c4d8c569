package soapdec

import (
	"testing"

	"bsoap/internal/wire"
)

// FuzzDecode asserts schema-driven envelope decoding never panics on
// arbitrary input, with and without range recording.
func FuzzDecode(f *testing.F) {
	seeds := []string{
		"",
		`<E:Envelope><E:Body><ns1:op><v>1</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[2]"><item>1</item><item>2</item></a></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Header><h/></E:Header><E:Body><ns1:op><v>1</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><a SOAP-ENC:arrayType="xsd:double[99999]"></a></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><v>not-a-number</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><v>1</v><a SOAP-ENC:arrayType="xsd:double[2]"><item>0x1p-2</item><item>.5e1</item></a></ns1:op></E:Body></E:Envelope>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	schemas := map[string]*Schema{
		"op": {Namespace: "urn:f", Op: "op", Params: []ParamSpec{
			{Name: "v", Type: wire.TInt},
			{Name: "a", Type: wire.ArrayOf(wire.TDouble)},
			{Name: "m", Type: mio},
		}},
	}
	lookup := func(op string) (*Schema, bool) {
		s, ok := schemas[op]
		return s, ok
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, record := range []bool{false, true} {
			res, err := Decode(data, lookup, record)
			if err == nil && res.Msg == nil {
				t.Fatal("nil message without error")
			}
			if err == nil && record && len(res.Ranges) != res.Msg.NumLeaves() {
				t.Fatalf("ranges %d vs leaves %d", len(res.Ranges), res.Msg.NumLeaves())
			}
		}
	})
}
