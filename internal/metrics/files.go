package metrics

import (
	"fmt"
	"os"
	"path/filepath"
)

// Standard file names written by WriteFiles.
const (
	// ManifestFile is the JSON run manifest.
	ManifestFile = "manifest.json"
	// PrometheusFile is the Prometheus text-format dump.
	PrometheusFile = "metrics.prom"
	// HeatmapFile is the ASCII channel-utilization heatmap.
	HeatmapFile = "heatmap.txt"
)

// WriteFiles writes the run's full metric dump — JSON manifest,
// Prometheus text format and channel heatmap — into dir, creating it if
// needed.
func (m *Collector) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, ManifestFile))
	if err != nil {
		return err
	}
	if err := m.WriteManifest(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(filepath.Join(dir, PrometheusFile))
	if err != nil {
		return err
	}
	if err := m.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics: prometheus: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, HeatmapFile), []byte(m.Heatmap()), 0o644)
}
