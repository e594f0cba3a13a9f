package failover

// Promotions reports how many automatic promotions this detector performed
// (0 or 1; the detector retires after one).
func (d *Detector) Promotions() uint64 { return d.promotions.Load() }
