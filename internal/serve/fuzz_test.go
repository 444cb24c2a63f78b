package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzValidateJob decodes arbitrary bytes into a Job the way the job
// handler does and runs admission on it. Neither step may panic, and any
// job Validate accepts must survive an encode/decode round trip: encoding
// it, decoding that and encoding again gives the same bytes, and the
// decoded job still validates. Bytes are compared rather than structs
// because Figures is omitempty, so a nil and an empty slice encode alike.
func FuzzValidateJob(f *testing.F) {
	seeds := []Job{
		{Command: "figure", Figures: []string{"5"}, Options: tinyOptions()},
		{Command: "figure", Figures: []string{"7"}, Options: tinyOptions()},
		{Command: "sweep", Sweep: "chtsize", Options: tinyOptions()},
		{Command: "cpistack", Options: tinyOptions()},
		{Command: "all", Options: tinyOptions()},
		{Command: "tournament", Group: "SpecInt95", Options: tinyOptions()},
		{Command: "figure", Figures: []string{}}, // rejected: no uops
	}
	for _, j := range seeds {
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"command":"figure","figures":["13"],"options":{"uops":1}}`))
	f.Add([]byte(`{"command":"sweep","sweep":"nope","options":{"uops":1}}`))
	f.Add([]byte(`{"command":"all","options":{"uops":-1}}`))
	f.Add([]byte(`{"command":"all","figures":[],"group":" \ud800","options":{"uops":9}}`))
	f.Add([]byte(`{"command":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var j Job
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&j); err != nil {
			return
		}
		if Validate(j) != nil {
			return
		}
		first, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("encoding accepted job %+v: %v", j, err)
		}
		var back Job
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("decoding re-encoded job %s: %v", first, err)
		}
		if err := Validate(back); err != nil {
			t.Fatalf("round-tripped job %s no longer validates: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("encoding round-tripped job %+v: %v", back, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the job encoding:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
