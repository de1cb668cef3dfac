package fragment_test

import (
	"bytes"
	"fmt"

	"narada/examples/datastreams/fragment"
)

func Example() {
	dataset := bytes.Repeat([]byte("sensor-reading;"), 10000)
	frags, _ := fragment.Split(dataset, fragment.Config{
		Compress:     true,
		FragmentSize: 4096,
	})

	co := fragment.NewCoalescer(0, nil)
	var rebuilt []byte
	for _, f := range frags {
		// In production each fragment is published as one event and
		// decoded on arrival; here we feed them straight through.
		decoded, _ := fragment.Decode(fragment.Encode(f))
		if payload, done, _ := co.Add(decoded); done {
			rebuilt = payload
		}
	}
	fmt.Println(bytes.Equal(rebuilt, dataset))
	// Output: true
}
