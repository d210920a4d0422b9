package nn

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// TestLoadLanguageNetworkRejectsHugeConfig pins the load-path allocation
// bound: a tiny gob stream declaring billion-unit layers must fail with a
// descriptive error instead of allocating O(dim^2) weight matrices (the
// unbounded-allocation bug surfaced by FuzzEnvelopeDecode).
func TestLoadLanguageNetworkRejectsHugeConfig(t *testing.T) {
	for _, cfg := range []NetworkConfig{
		{InputSize: 1 << 30, HiddenSize: 4},
		{InputSize: 4, HiddenSize: 1 << 30},
		{InputSize: 1 << 33, HiddenSize: 1 << 33}, // rows*cols would overflow
		// Each dimension under the per-dim cap, but the implied gate
		// matrix would still span terabytes: the product bound catches it.
		{InputSize: 1 << 19, HiddenSize: 1 << 19},
		{InputSize: 2, HiddenSize: 1 << 19},
		// 4*hidden*(in+hidden) wraps past 2^32 here: the division-form
		// comparison must still reject it on 32-bit platforms.
		{InputSize: 1 << 20, HiddenSize: 1 << 10},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&serializedNetwork{Config: cfg}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadLanguageNetwork(&buf); err == nil {
			t.Fatalf("config %+v must be rejected", cfg)
		}
	}
}

// TestNetworkSaveLoadRoundTrip: a legitimate network survives the bound.
func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	n, err := NewLanguageNetwork(NetworkConfig{InputSize: 5, HiddenSize: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLanguageNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.ForwardAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ForwardAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("step %d output %d changed across save/load", i, j)
			}
		}
	}
}

// TestLoadLanguageNetworkRejectsLegacyQuantTag: model files written with
// int8 or f16 weights carry a precision tag; loading one must fail with
// a clear error even when every parameter is well shaped, while an
// explicit "f64" tag still loads.
func TestLoadLanguageNetworkRejectsLegacyQuantTag(t *testing.T) {
	n, err := NewLanguageNetwork(NetworkConfig{InputSize: 5, HiddenSize: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var params []serializedParam
	for _, p := range n.Params() {
		params = append(params, serializedParam{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
	}
	for _, tag := range []string{"int8", "f16", "f64"} {
		var buf bytes.Buffer
		s := serializedNetwork{Config: n.cfg, Params: params, Quant: tag}
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			t.Fatal(err)
		}
		_, err := LoadLanguageNetwork(&buf)
		if tag == "f64" {
			if err != nil {
				t.Fatalf("f64-tagged file rejected: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tag) {
			t.Fatalf("%s-tagged file: got error %v, want a rejection naming the tag", tag, err)
		}
	}
}
