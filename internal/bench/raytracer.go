package bench

import (
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// sphereFields is the flattened per-sphere record in the scene array:
// center (3), radius, diffuse reflectance.
const sphereFields = 5

// runRayTracer renders a sphere scene with one task per scanline: primary
// ray, nearest-sphere intersection, Lambertian shading, and a shadow ray
// toward a point light. The whole scene array is read-shared by every
// pixel — the pattern behind RayTracer's high FastTrack/Eraser memory in
// Table 3.
func runRayTracer(rt *task.Runtime, in Input) (float64, error) {
	side := in.scaled(64, 8)
	const nSpheres = 8
	scene := mem.NewArray[float64](rt, "ray.scene", nSpheres*sphereFields)
	img := mem.NewMatrix[float64](rt, "ray.img", side, side)

	r := newRNG(73)
	sr := scene.Unchecked()
	for s := 0; s < nSpheres; s++ {
		sr[s*sphereFields+0] = 8 * (r.float64() - 0.5) // cx
		sr[s*sphereFields+1] = 8 * (r.float64() - 0.5) // cy
		sr[s*sphereFields+2] = 6 + 6*r.float64()       // cz
		sr[s*sphereFields+3] = 0.5 + r.float64()       // radius
		sr[s*sphereFields+4] = 0.3 + 0.7*r.float64()   // reflectance
	}
	light := [3]float64{-5, 8, 0}

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, side, in.grain(c, side), func(c *task.Ctx, y int) {
			for x := 0; x < side; x++ {
				// Perspective ray through the pixel.
				dir := norm3([3]float64{
					(float64(x)/float64(side) - 0.5) * 2,
					(float64(y)/float64(side) - 0.5) * 2,
					1,
				})
				img.Set(c, y, x, trace(c, scene, [3]float64{0, 0, 0}, dir, light))
			}
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range img.Unchecked() {
		sum += v
	}
	return sum, nil
}

// trace returns the luminance for one primary ray.
func trace(c *task.Ctx, scene *mem.Array[float64], org, dir, light [3]float64) float64 {
	t, s := intersect(c, scene, org, dir, -1)
	if s < 0 {
		return 0 // background
	}
	hit := [3]float64{org[0] + t*dir[0], org[1] + t*dir[1], org[2] + t*dir[2]}
	center := [3]float64{
		scene.Get(c, s*sphereFields+0),
		scene.Get(c, s*sphereFields+1),
		scene.Get(c, s*sphereFields+2),
	}
	n := norm3(sub3(hit, center))
	l := norm3(sub3(light, hit))
	lambert := n[0]*l[0] + n[1]*l[1] + n[2]*l[2]
	if lambert <= 0 {
		return 0.05 // ambient
	}
	// Shadow ray: any occluder between hit point and the light?
	if _, occ := intersect(c, scene, hit, l, s); occ >= 0 {
		return 0.05
	}
	return 0.05 + lambert*scene.Get(c, s*sphereFields+4)
}

// intersect returns the nearest positive hit (t, sphere index) of the
// ray, skipping sphere `skip`; (0, -1) if none.
func intersect(c *task.Ctx, scene *mem.Array[float64], org, dir [3]float64, skip int) (float64, int) {
	bestT, bestS := math.MaxFloat64, -1
	n := scene.Len() / sphereFields
	for s := 0; s < n; s++ {
		if s == skip {
			continue
		}
		oc := [3]float64{
			org[0] - scene.Get(c, s*sphereFields+0),
			org[1] - scene.Get(c, s*sphereFields+1),
			org[2] - scene.Get(c, s*sphereFields+2),
		}
		rad := scene.Get(c, s*sphereFields+3)
		b := oc[0]*dir[0] + oc[1]*dir[1] + oc[2]*dir[2]
		cc := oc[0]*oc[0] + oc[1]*oc[1] + oc[2]*oc[2] - rad*rad
		disc := b*b - cc
		if disc < 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t > 1e-6 && t < bestT {
			bestT, bestS = t, s
		}
	}
	if bestS < 0 {
		return 0, -1
	}
	return bestT, bestS
}

func sub3(a, b [3]float64) [3]float64 {
	return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]}
}

func norm3(v [3]float64) [3]float64 {
	m := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	if m == 0 {
		return v
	}
	return [3]float64{v[0] / m, v[1] / m, v[2] / m}
}
