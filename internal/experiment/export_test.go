package experiment

// WithTestbedHook returns cfg with f run on each cell's testbed as soon
// as it is built (RunConfig.onTestbed), for tests outside the package.
func WithTestbedHook(cfg RunConfig, f func(*Testbed)) RunConfig {
	cfg.onTestbed = f
	return cfg
}
