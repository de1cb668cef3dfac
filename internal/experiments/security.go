package experiments

import (
	"fmt"
	"time"

	"narada/internal/core"
	"narada/internal/security"
	"narada/internal/uuid"
)

// timedReport times opts.Runs executions of op on the host CPU and renders
// them under the paper's sampling (Figures 13 and 14). These run real
// cryptography (the paper used a Pentium M 2.0 GHz), so absolute numbers
// differ; the conclusion under test is the paper's: "these costs are
// acceptable in most systems which would require such a feature".
func timedReport(opts Options, title, operation, unit string, op func() error) (*Report, error) {
	samples := make([]float64, 0, opts.Runs)
	for i := 0; i < opts.Runs; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		samples = append(samples, ms(time.Since(start)))
	}
	sum, err := paperSummary(samples, opts)
	if err != nil {
		return nil, err
	}
	body := metricTable("ms", sum)
	body += fmt.Sprintf("\noperation: %s (host CPU; paper used a Pentium M 2.0 GHz)\n", operation)
	return &Report{Title: title, Body: body, Headline: sum.Mean, Unit: unit,
		PaperRef: "costs are acceptable in most systems requiring the feature"}, nil
}

// certValidation times X.509 certificate validation (Figure 13): parse the
// DER certificate and verify its chain to the trusted CA.
func certValidation(opts Options) (*Report, error) {
	ca, err := security.NewCA("narada-ca", 0)
	if err != nil {
		return nil, err
	}
	client, err := ca.Issue("discovery-client", 0)
	if err != nil {
		return nil, err
	}
	pool := ca.Pool()
	validate := func() error {
		_, err := security.ValidateCert(client.Cert.Raw, pool)
		return err
	}
	// Warm up (first validation pays one-time table setup).
	if err := validate(); err != nil {
		return nil, err
	}
	return timedReport(opts, "Time required in validating a X.509 Certificate",
		"X.509 validation", "ms/validation", validate)
}

// signEncrypt times the full Figure 14 round trip: digitally sign and encrypt
// a BrokerDiscoveryRequest, then decrypt it and verify the signature.
func signEncrypt(opts Options) (*Report, error) {
	ca, err := security.NewCA("narada-ca", 0)
	if err != nil {
		return nil, err
	}
	client, err := ca.Issue("discovery-client", 0)
	if err != nil {
		return nil, err
	}
	broker, err := ca.Issue("responding-broker", 0)
	if err != nil {
		return nil, err
	}
	pool := ca.Pool()
	body := core.EncodeDiscoveryRequest(&core.DiscoveryRequest{
		ID:           uuid.New(),
		Requester:    "client-bloomington",
		ResponseAddr: "bloomington/client:9000",
		Protocols:    []string{"tcp", "udp"},
	})
	return timedReport(opts, "Time to digitally sign and encrypt and later "+
		"extract the BrokerDiscoveryRequest",
		"sign+encrypt / decrypt+verify", "ms/roundtrip", func() error {
			sealed, err := security.Seal(client, broker.Cert, body)
			if err != nil {
				return err
			}
			decoded, err := security.DecodeSealed(security.EncodeSealed(sealed))
			if err != nil {
				return err
			}
			_, _, err = security.Open(broker, pool, decoded)
			return err
		})
}
